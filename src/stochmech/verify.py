"""Oracle cross-checks wiring the numerical pipeline against the closed forms.

Each check returns a CheckResult; `run_verification` drives the battery the
CLI ``verify`` subcommand reports.  The same functions, at their full stated
sizes, back the acceptance test suite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import momentum, oscillator, sde, stats
from .errors import NoConvergence
from .scenarios import Scenario

AUTOCOV_LAGS = (0.0, 0.5, 1.0, 2.0)
AUTOCOV_T_REF = 1.0
AUTOCOV_SPACING = 0.5


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    data: dict = field(default_factory=dict)

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} {self.name}: {self.detail}"


def _oscillator(nu: float) -> Scenario:
    return Scenario(kind="oscillator-ground", nu=nu)


def _oscillator_fields(nu: float):
    scenario = _oscillator(nu)
    interacting, free = scenario.drift_fields()
    return scenario, interacting, free


def check_coupled_closed_form(nu: float = 0.5, dt: float = 1e-3,
                              horizon: float = 10.0, n_paths: int = 100,
                              seed: int = 1000) -> CheckResult:
    """Co-integration against the integrating-factor solution on shared noise.

    The sup-norm deviation must scale like C dt: the fine run uses halved
    steps on pairwise-coarsened increments of the same Brownian realization,
    and the measured C must be stable within +-50%.  Both meshes are walked
    together in the fine mesh's noise blocks of ``sde.BLOCK`` steps, drawn
    into one reused buffer: each block steps x and x_F on both meshes from
    their last rows, evaluates the closed form on the block from its carry
    and folds |x_F - closed form| into a per-path running max.  No
    (steps x paths) array is held, and every value is that of one whole-mesh
    evaluation, bit for bit.
    """
    scenario, interacting, free = _oscillator_fields(nu)
    fine = sde.SimParams(nu=nu, dt=0.5 * dt, horizon=horizon, seed=seed)
    coarse = sde.SimParams(nu=nu, dt=dt, horizon=horizon, seed=seed)
    x0 = sde.initial_positions(seed, range(n_paths), scenario.initial_sampler())
    # per mesh: last rows of x and x_F, closed-form carry, per-path running max
    state = {params: (x0, x0, None, np.zeros(n_paths)) for params in (fine, coarse)}

    def advance(params, start, dw):
        x_last, xf_last, carry, sup = state[params]
        x = sde.integrate_batch(interacting, x_last, params, dw, start)
        xf = sde.co_integrate_batch(free, xf_last, params, dw, start)
        cf, carry = oscillator.coupled_path_closed_form(
            params.times(start, start + len(x)), x, nu, carry)
        # copies of the last rows, so the block's arrays are freed before the next
        state[params] = (x[-1].copy(), xf[-1].copy(), carry,
                         np.maximum(sup, np.max(np.abs(xf - cf), axis=0)))

    for k, dw in sde._noise_blocks(fine, range(n_paths)):
        advance(fine, k, dw)
        # BLOCK is even, so the coarse increments are sums of pairs within the block
        advance(coarse, k // 2, dw[0::2] + dw[1::2])
    devs = {dt: float(np.mean(state[coarse][3])), 0.5 * dt: float(np.mean(state[fine][3]))}
    c_coarse = devs[dt] / dt
    c_fine = devs[0.5 * dt] / (0.5 * dt)
    ratio = c_coarse / c_fine
    passed = bool(0.5 <= ratio <= 1.5 and c_coarse < 50.0)
    detail = (f"mean sup deviation {devs[dt]:.3e} at dt={dt:g} "
              f"(C={c_coarse:.2f}), C ratio under halving {ratio:.3f}")
    return CheckResult("coupled-path closed form", passed, detail,
                       data={"devs": devs, "c_ratio": ratio})


def check_picard_equivalence(nu: float = 0.5, dt: float = 1e-3,
                             horizon: float = 10.0, n_paths: int = 20,
                             seed: int = 2000, tol: float = 1e-10) -> CheckResult:
    """Picard fixed point vs direct co-integration, plus geometric residuals.

    x and x_F are every row of one run of the ensemble kernel, which steps
    every momentum sample; each path is solved on its own.  The very first
    sweep can overshoot before the Volterra contraction sets in, so the
    geometric-decrease requirement applies from the second residual ratio
    onward.  A NaN, or a path that never converges, fails it.
    """
    scenario, interacting, free = _oscillator_fields(nu)
    params = sde.SimParams(nu=nu, dt=dt, horizon=horizon, seed=seed)
    times = params.times()
    run = sde.simulate_coupled_ensemble(interacting, free, scenario.initial_sampler(),
                                        params, range(n_paths),
                                        record_indices=np.arange(params.steps + 1))
    worst_gap = 0.0
    worst_ratio = 0.0
    # a whole-matrix solve would keep sweeping converged paths, whose residual
    # ratios then reach the rounding floor
    for i, (x, direct) in enumerate(zip(run.recorded_x.T, run.recorded_xf.T)):
        try:
            xf, _, history = sde.picard_solve((interacting, free), x, times, dt, tol=tol)
        except NoConvergence as err:
            return CheckResult("picard equivalence", False, f"path {i}: {err}", {"path": i})
        # np.maximum and np.max, unlike max, keep a NaN
        worst_gap = float(np.maximum(worst_gap, np.max(np.abs(xf - direct))))
        ratios = np.array(history[1:]) / np.array(history[:-1])
        if len(ratios) > 1:
            worst_ratio = float(np.maximum(worst_ratio, ratios[1:].max()))
    passed = bool(worst_gap <= 1e-8 and worst_ratio < 0.95)
    detail = (f"max |picard - co_integrate| = {worst_gap:.2e}, "
              f"max post-transient residual ratio {worst_ratio:.3f}")
    return CheckResult("picard equivalence", passed, detail,
                       data={"gap": worst_gap, "ratio": worst_ratio})


def _autocov_request(nu, dt, m, seed) -> dict:
    """``momentum.collect`` arguments of the OU record of ``check_autocovariance``."""
    record_times = [AUTOCOV_T_REF + i * AUTOCOV_SPACING for i in range(5)]
    params = sde.SimParams(nu=nu, dt=dt, horizon=record_times[-1], seed=seed)
    return dict(scenario=_oscillator(nu), params=params,
                ensemble_size=m, record_times=record_times)


def check_autocovariance(ensemble: momentum.MomentumEnsemble) -> CheckResult:
    """Cross-path OU covariance against (1/2) exp(-2 nu lag) at 5 sigma, at
    the ensemble's nu; a NaN estimate, or a lag with no spread, fails.

    ``ensemble`` is collected as ``_autocov_request`` asks.
    """
    points = stats.autocovariance(ensemble.extras["recorded_x"], dt=AUTOCOV_SPACING,
                                  lags=AUTOCOV_LAGS)
    nu = ensemble.provenance["nu"]
    worst_sigma = float(np.max([abs(pt.estimate - float(oscillator.ou_covariance(0.0, pt.lag, nu)))
                                / pt.stderr if pt.stderr else math.inf for pt in points]))
    passed = bool(worst_sigma <= 5.0)
    detail = f"max |estimate - target| = {worst_sigma:.2f} standard errors over lags {AUTOCOV_LAGS}"
    return CheckResult("OU autocovariance", passed, detail,
                       data={"points": points, "worst_sigma": worst_sigma})


def check_momentum_consistency(ensemble: momentum.MomentumEnsemble) -> CheckResult:
    """Two independent momentum routes per path: weighted quadrature of the
    interacting path vs the free-path ratio, within three exact standard
    deviations of their difference under the Euler scheme at the ensemble's
    nu, step and horizon (``oscillator.difference_bound``) on at least 99%
    of paths.

    ``ensemble`` is collected with the oscillator's momentum quadrature
    weights as ``time_weights``.
    """
    run = ensemble.provenance
    diffs = np.abs(ensemble.extras["weighted_integrals"] - ensemble.values)
    bound = oscillator.difference_bound(run["horizon"], run["nu"], run["dt"])
    frac = float(np.mean(diffs <= bound))
    passed = bool(frac >= 0.99)
    detail = (f"{100.0 * frac:.2f}% of paths within bound {bound:.4f} "
              f"(max |difference| {diffs.max():.4f})")
    return CheckResult("two-route momentum consistency", passed, detail,
                       data={"fraction": frac, "bound": bound})


def check_nu_invariance(base_ensemble: momentum.MomentumEnsemble,
                        nu_ensembles: dict) -> CheckResult:
    """Momentum variance and distribution must not depend on nu.

    ``nu_ensembles`` maps each other nu to its ensemble, of the same size as
    ``base_ensemble``.  Each Var(P) must lie within three standard errors,
    3 v sqrt(2 / M), of v, the exact Var(P) of the Euler scheme at the base
    ensemble's nu, horizon T and step, (1 + 1/T^2) / 2 as the step vanishes.
    """
    base_nu, dt, horizon = (base_ensemble.provenance[k] for k in ("nu", "dt", "horizon"))
    target = oscillator.euler_covariance(horizon, base_nu, dt)[2, 2] / horizon ** 2
    band = 3.0 * target * math.sqrt(2.0 / len(base_ensemble))
    results = {base_nu: base_ensemble.values}
    results.update({nu: ensemble.values for nu, ensemble in nu_ensembles.items()})
    variances = {nu: float(np.var(v, ddof=1)) for nu, v in results.items()}
    var_ok = all(abs(v - target) <= band for v in variances.values())
    pvals = {nu: stats.ks_two_sample(results[base_nu], results[nu]).pvalue
             for nu in nu_ensembles}
    ks_ok = all(p > 0.01 for p in pvals.values())
    passed = bool(var_ok and ks_ok)
    detail = (f"Var(P) by nu: "
              + ", ".join(f"{nu:g}: {v:.4f}" for nu, v in sorted(variances.items()))
              + f" (band +-{band:.4f}); two-sample KS p: "
              + ", ".join(f"{nu:g}: {p:.3f}" for nu, p in sorted(pvals.items())))
    return CheckResult("nu invariance", passed, detail,
                       data={"variances": variances, "pvalues": pvals})


def run_verification(nu: float = 0.5, dt: float = 1e-3, horizon: float = 50.0,
                     m: int = 10000, seed: int = 42, workers: int = 1) -> list:
    """Full oracle battery at the given scale (oscillator scenario only).

    The two batch checks and then the chunks of its four ensembles are jobs
    on one pool of ``workers`` processes (in this process for one worker), so
    the work is balanced by chunk; the three ensemble checks then reduce from
    the results.  Every job is a pure function of its seeds, so the results
    do not depend on ``workers``.
    """
    scenario = _oscillator(nu)
    params = sde.SimParams(nu=nu, dt=dt, horizon=horizon, seed=seed)
    weights = oscillator.momentum_quadrature_weights(params.times(), nu)
    nu_values = (0.5 * nu, 2.0 * nu)
    plans = [
        # the weighted base ensemble serves both consistency and nu invariance
        momentum.plan(scenario, params, m, time_weights=weights),
        *(momentum.plan(_oscillator(v),
                        sde.SimParams(nu=v, dt=dt, horizon=horizon, seed=seed + 404 + offset),
                        m)
          for offset, v in enumerate(nu_values, start=1)),
        momentum.plan(**_autocov_request(nu, dt, m, seed + 303)),
    ]
    # check functions are looked up by module attribute here, so wrappers
    # installed on the module also see the calls made in pool workers
    batch_checks = [
        functools.partial(check_coupled_closed_form, nu=nu, dt=dt, seed=seed + 101),
        functools.partial(check_picard_equivalence, nu=nu, dt=dt, seed=seed + 202),
    ]
    # the batch checks go to the pool first: with 1,000 paths to T = 10 the
    # closed-form check is the longest job
    closed_form, picard, *chunks = momentum.run_jobs(
        batch_checks + [job for p in plans for job in p.jobs], workers)
    chunks = iter(chunks)
    base_ensemble, *by_nu, autocov_ensemble = [
        p.reduce([next(chunks) for _ in p.jobs]) for p in plans]
    return [
        closed_form,
        picard,
        check_autocovariance(autocov_ensemble),
        check_momentum_consistency(base_ensemble),
        check_nu_invariance(base_ensemble, dict(zip(nu_values, by_nu))),
    ]
