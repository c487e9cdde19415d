"""Oracle cross-checks wiring the numerical pipeline against the closed forms.

Each check returns a CheckResult; `run_verification` drives the battery the
CLI ``verify`` subcommand reports.  The same functions, at their full stated
sizes, back the acceptance test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import momentum, oscillator, sde, stats
from .scenarios import Scenario

AUTOCOV_LAGS = (0.0, 0.5, 1.0, 2.0)
AUTOCOV_T_REF = 1.0


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    data: dict = field(default_factory=dict)

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} {self.name}: {self.detail}"


def _oscillator_fields(nu: float):
    scenario = Scenario(kind="oscillator-ground", nu=nu)
    interacting, free = scenario.drift_fields()
    return scenario, interacting, free


def _draw_paths(params: sde.SimParams, sampler, n_paths: int):
    """Increments (steps, n_paths) and initial positions of paths
    0..n_paths-1, each from its own streams, for the batch integrators."""
    noise = sde.path_rngs(params.seed, range(n_paths), sde.STREAM_NOISE)
    dw = np.stack([rng.standard_normal(params.steps) for rng in noise], axis=1)
    dw *= params.noise_scale
    initial = sde.path_rngs(params.seed, range(n_paths), sde.STREAM_INITIAL)
    x0 = np.array([float(sampler(rng)) for rng in initial])
    return dw, x0


def check_coupled_closed_form(nu: float = 0.5, dt: float = 1e-3,
                              horizon: float = 10.0, n_paths: int = 100,
                              seed: int = 1000, gamma_fn=None) -> CheckResult:
    """Co-integration against the integrating-factor solution on shared noise.

    The sup-norm deviation must scale like C dt: the fine run uses halved
    steps on pairwise-coarsened increments of the same Brownian realization,
    and the measured C must be stable within +-50%.
    """
    scen = oscillator.OscillatorScenario(nu=nu)
    scenario, interacting, free = _oscillator_fields(nu)
    sampler = scenario.initial_sampler()
    params_fine = sde.SimParams(nu=nu, dt=0.5 * dt, horizon=horizon, seed=seed)
    dw_fine, x0 = _draw_paths(params_fine, sampler, n_paths)
    params_coarse = sde.SimParams(nu=nu, dt=dt, horizon=horizon, seed=seed)
    dw_coarse = dw_fine[0::2] + dw_fine[1::2]

    devs = {}
    for params, dw in ((params_coarse, dw_coarse), (params_fine, dw_fine)):
        x = sde.integrate_batch(interacting, x0, params, dw)
        xf = sde.co_integrate_batch(free, x, params, dw)
        cf = oscillator.coupled_path_closed_form(params.times(), x, scen, gamma_fn=gamma_fn)
        devs[params.dt] = float(np.mean(np.max(np.abs(xf - cf), axis=0)))
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

    The very first sweep can overshoot before the Volterra contraction sets
    in, so the geometric-decrease requirement applies from the second
    residual ratio onward.
    """
    scenario, interacting, free = _oscillator_fields(nu)
    sampler = scenario.initial_sampler()
    params = sde.SimParams(nu=nu, dt=dt, horizon=horizon, seed=seed)
    dw, x0 = _draw_paths(params, sampler, n_paths)
    x = sde.integrate_batch(interacting, x0, params, dw)
    direct = sde.co_integrate_batch(free, x, params, dw)
    times = params.times()
    worst_gap = 0.0
    worst_ratio = 0.0
    for i in range(n_paths):
        # column i is bit-identical to a single-path integrate of path i
        path = sde.SamplePath(times=times, positions=x[:, i], increments=dw[:, i],
                              params=params.with_path_index(i))
        pair, _, history = sde.picard_solve((interacting, free), path, tol=tol)
        worst_gap = max(worst_gap, float(np.max(np.abs(
            pair.free_positions - direct[:, i]))))
        ratios = np.array(history[1:]) / np.array(history[:-1])
        if len(ratios) > 1:
            worst_ratio = max(worst_ratio, float(ratios[1:].max()))
    passed = bool(worst_gap <= 1e-8 and worst_ratio < 0.95)
    detail = (f"max |picard - co_integrate| = {worst_gap:.2e}, "
              f"max post-transient residual ratio {worst_ratio:.3f}")
    return CheckResult("picard equivalence", passed, detail,
                       data={"gap": worst_gap, "ratio": worst_ratio})


def check_autocovariance(nu: float = 0.5, dt: float = 1e-3, m: int = 10000,
                         seed: int = 3000, workers: int = 1) -> CheckResult:
    """Cross-path OU covariance against (1/2) exp(-2 nu lag) at 5 sigma."""
    scenario = Scenario(kind="oscillator-ground", nu=nu)
    sample_spacing = 0.5
    record_times = [AUTOCOV_T_REF + i * sample_spacing for i in range(5)]
    params = sde.SimParams(nu=nu, dt=dt, horizon=record_times[-1], seed=seed)
    ensemble = momentum.collect(scenario, params, m, record_times=record_times,
                                workers=workers)
    scen = oscillator.OscillatorScenario(nu=nu)
    points = stats.autocovariance(ensemble.extras["recorded_x"], dt=sample_spacing,
                                  lags=AUTOCOV_LAGS)
    worst_sigma = 0.0
    for pt in points:
        target = float(oscillator.ou_covariance(0.0, pt.lag, scen))
        worst_sigma = max(worst_sigma, abs(pt.estimate - target) / pt.stderr)
    passed = bool(worst_sigma <= 5.0)
    detail = f"max |estimate - target| = {worst_sigma:.2f} standard errors over lags {AUTOCOV_LAGS}"
    return CheckResult("OU autocovariance", passed, detail,
                       data={"points": points, "worst_sigma": worst_sigma})


def check_momentum_consistency(nu: float = 0.5, dt: float = 1e-3,
                               horizon: float = 50.0, m: int = 10000,
                               seed: int = 4000, workers: int = 1,
                               ensemble: momentum.MomentumEnsemble = None) -> CheckResult:
    """Two independent momentum routes per path: weighted quadrature of the
    interacting path vs the free-path ratio, compared to the documented bound."""
    scen = oscillator.OscillatorScenario(nu=nu)
    if ensemble is None:
        scenario = Scenario(kind="oscillator-ground", nu=nu)
        params = sde.SimParams(nu=nu, dt=dt, horizon=horizon, seed=seed)
        weights = oscillator.momentum_quadrature_weights(params.times(), scen)
        ensemble = momentum.collect(scenario, params, m, time_weights=weights,
                                    workers=workers)
    diffs = np.abs(ensemble.extras["weighted_integrals"] - ensemble.values)
    bound = oscillator.difference_bound(horizon, scen, dt)
    frac = float(np.mean(diffs <= bound))
    passed = bool(frac >= 0.99)
    detail = (f"{100.0 * frac:.2f}% of paths within bound {bound:.4f} "
              f"(max |difference| {diffs.max():.4f})")
    return CheckResult("two-route momentum consistency", passed, detail,
                       data={"fraction": frac, "bound": bound})


def check_nu_invariance(dt: float = 1e-3, horizon: float = 50.0, m: int = 10000,
                        seed: int = 5000, nu_values=(0.25, 1.0),
                        base_nu: float = 0.5, workers: int = 1,
                        base_ensemble: momentum.MomentumEnsemble = None) -> CheckResult:
    """Momentum variance and distribution must not depend on nu."""
    band = 3.0 * 0.5 * math.sqrt(2.0 / m)
    if base_ensemble is None:
        params = sde.SimParams(nu=base_nu, dt=dt, horizon=horizon, seed=seed)
        base_ensemble = momentum.collect(
            Scenario(kind="oscillator-ground", nu=base_nu), params, m,
            workers=workers)
    results = {base_nu: base_ensemble.values}
    for offset, nu in enumerate(nu_values, start=1):
        params = sde.SimParams(nu=nu, dt=dt, horizon=horizon, seed=seed + offset)
        results[nu] = momentum.collect(
            Scenario(kind="oscillator-ground", nu=nu), params, m,
            workers=workers).values
    variances = {nu: float(np.var(v, ddof=1)) for nu, v in results.items()}
    var_ok = all(abs(v - 0.5) <= band for v in variances.values())
    pvals = {nu: stats.ks_two_sample(results[base_nu], results[nu]).pvalue
             for nu in nu_values}
    ks_ok = all(p > 0.01 for p in pvals.values())
    passed = bool(var_ok and ks_ok)
    detail = (f"Var(P) by nu: "
              + ", ".join(f"{nu:g}: {v:.4f}" for nu, v in sorted(variances.items()))
              + f" (band +-{band:.4f}); two-sample KS p: "
              + ", ".join(f"{nu:g}: {p:.3f}" for nu, p in sorted(pvals.items())))
    return CheckResult("nu invariance", passed, detail,
                       data={"variances": variances, "pvalues": pvals})


def run_verification(nu: float = 0.5, dt: float = 1e-3, horizon: float = 50.0,
                     m: int = 10000, seed: int = 42, workers: int = 1,
                     closed_form_paths: int = 100) -> list:
    """Full oracle battery at the given scale (oscillator scenario only)."""
    scen = oscillator.OscillatorScenario(nu=nu)
    scenario = Scenario(kind="oscillator-ground", nu=nu)
    params = sde.SimParams(nu=nu, dt=dt, horizon=horizon, seed=seed)
    weights = oscillator.momentum_quadrature_weights(params.times(), scen)
    base_ensemble = momentum.collect(scenario, params, m, time_weights=weights,
                                     workers=workers)
    return [
        check_coupled_closed_form(nu=nu, dt=dt, n_paths=closed_form_paths,
                                  seed=seed + 101),
        check_picard_equivalence(nu=nu, dt=dt, seed=seed + 202),
        check_autocovariance(nu=nu, dt=dt, m=m, seed=seed + 303, workers=workers),
        check_momentum_consistency(nu=nu, dt=dt, horizon=horizon,
                                   ensemble=base_ensemble),
        check_nu_invariance(dt=dt, horizon=horizon, m=m, seed=seed + 404,
                            base_nu=nu, workers=workers,
                            base_ensemble=base_ensemble),
    ]
