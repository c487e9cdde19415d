"""Acceptance gate: every criterion at its stated setting and tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them inline).
The heavy ensembles (M = 10^4, T = 50, dt = 1e-3) are shared module-scoped
fixtures; everything downstream of them is deterministic given the seeds.

 1. oscillator momentum variance: Var(P) in 1/2 +- 3 * (1/2) sqrt(2/M)
 2. momentum distribution KS p > 0.01 (oscillator and free Gaussian)
 3. nu invariance of the variance band and two-sample KS across nu runs
 4. co-integration vs closed-form coupled path: deviation <= C dt, C stable
 5. picard_solve vs co_integrate within 1e-8; geometric residuals
 6. OU autocovariance at lags {0, 0.5, 1, 2} within 5 standard errors
 7. two-route momentum agreement within the documented bound on >= 99% of paths
 8. free-coupling identity x_F == x exactly (floating-point equality)
 9. spectral propagator vs the closed-form spreading Gaussian at 1e-6
"""

import math
import os

import numpy as np
import pytest

from stochmech import momentum, oscillator, sde, stats, verify
from stochmech import wavefunction as wf
from stochmech.scenarios import Scenario

NU = 0.5
DT = 1e-3
HORIZON = 50.0
M = 10_000
VAR_BAND = 3.0 * 0.5 * math.sqrt(2.0 / M)      # ~0.0212
# ensembles are identical for any worker count, so the fixtures use every core
WORKERS = len(os.sched_getaffinity(0))


def report(criterion: int, passed: bool, detail: str) -> None:
    tag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {tag} - {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def oscillator_ensemble():
    scenario = Scenario(kind="oscillator-ground", nu=NU)
    params = sde.SimParams(nu=NU, dt=DT, horizon=HORIZON, seed=42)
    weights = oscillator.momentum_quadrature_weights(params.times(), NU)
    return momentum.collect(scenario, params, M, time_weights=weights, workers=WORKERS)


@pytest.fixture(scope="module")
def free_ensemble():
    params = sde.SimParams(nu=NU, dt=DT, horizon=HORIZON, seed=43)
    return momentum.collect(Scenario(kind="free-gaussian", nu=NU), params, M,
                            record_times=[HORIZON], workers=WORKERS)


@pytest.fixture(scope="module")
def nu_variant_ensembles():
    out = {}
    for offset, nu in ((2, 0.25), (3, 1.0)):
        params = sde.SimParams(nu=nu, dt=DT, horizon=HORIZON, seed=42 + offset)
        out[nu] = momentum.collect(Scenario(kind="oscillator-ground", nu=nu),
                                   params, M, workers=WORKERS)
    return out


def test_criterion_1_momentum_variance(oscillator_ensemble):
    mom = stats.moments(oscillator_ensemble.values)
    passed = abs(mom.variance - 0.5) <= VAR_BAND
    report(1, passed,
           f"Var(P) = {mom.variance:.4f}, band 0.5 +- {VAR_BAND:.4f} "
           f"(M = {mom.n}, T = {HORIZON:g}, dt = {DT:g})")


def test_criterion_2_momentum_distribution(oscillator_ensemble, free_ensemble):
    details = []
    passed = True
    for label, ensemble, scenario in (
        ("oscillator", oscillator_ensemble, Scenario(kind="oscillator-ground", nu=NU)),
        ("free", free_ensemble, Scenario(kind="free-gaussian", nu=NU)),
    ):
        ks = stats.ks_against_density(ensemble.values, scenario.target_density())
        details.append(f"{label}: D = {ks.statistic:.4f}, p = {ks.pvalue:.3f}")
        passed = passed and ks.pvalue > 0.01
    report(2, passed, "; ".join(details))


def test_criterion_3_nu_invariance(oscillator_ensemble, nu_variant_ensembles):
    details = []
    passed = True
    for nu, ensemble in sorted(nu_variant_ensembles.items()):
        var = float(np.var(ensemble.values, ddof=1))
        ks = stats.ks_two_sample(oscillator_ensemble.values, ensemble.values)
        details.append(f"nu={nu:g}: Var = {var:.4f}, two-sample p = {ks.pvalue:.3f}")
        passed = passed and abs(var - 0.5) <= VAR_BAND and ks.pvalue > 0.01
    report(3, passed, "; ".join(details) + f" (band +-{VAR_BAND:.4f})")


def test_criterion_4_coupled_path_oracle():
    result = verify.check_coupled_closed_form(nu=NU, dt=DT, horizon=10.0,
                                              n_paths=100, seed=1042)
    report(4, result.passed, result.detail)


def test_criterion_5_picard_equivalence():
    result = verify.check_picard_equivalence(nu=NU, dt=DT, horizon=10.0,
                                             n_paths=20, seed=2042, tol=1e-10)
    report(5, result.passed, result.detail)


def test_criterion_6_ou_autocovariance():
    ensemble = momentum.collect(**verify._autocov_request(NU, DT, M, 3042), workers=WORKERS)
    result = verify.check_autocovariance(ensemble)
    report(6, result.passed, result.detail)


def test_criterion_7_two_route_momentum(oscillator_ensemble):
    result = verify.check_momentum_consistency(oscillator_ensemble)
    report(7, result.passed, result.detail)


def test_criterion_8_free_coupling_identity(free_ensemble):
    finals_equal = np.array_equal(free_ensemble.extras["recorded_x"][:, 0],
                                  free_ensemble.extras["xf_final"])
    # full trajectories on a stored sub-ensemble
    scenario = Scenario(kind="free-gaussian", nu=NU)
    interacting, free_field = scenario.drift_fields()
    params = sde.SimParams(nu=NU, dt=DT, horizon=5.0, seed=43)
    chunk = sde.simulate_coupled_ensemble(
        interacting, free_field, scenario.initial_sampler(), params, range(200),
        record_indices=np.arange(params.steps + 1))
    trajectories_equal = np.array_equal(chunk.recorded_x, chunk.recorded_xf)
    passed = finals_equal and trajectories_equal
    report(8, passed,
           f"x_F == x exactly on {M} final values and 200 full trajectories")


def test_criterion_9_spectral_propagator():
    initial = wf.to_grid(wf.harmonic_ground_state())
    worst = 0.0
    norm_drift = 0.0
    for tau in (0.5, 2.0):
        out = wf.FreeGridDriftEvaluator(initial, 0.5).state(tau)
        exact = wf.free_gaussian_state().psi(initial.grid, tau)
        worst = max(worst, float(np.max(np.abs(out.amplitude - exact))))
        norm = out.spacing * float(np.sum(np.abs(out.amplitude) ** 2))
        norm_drift = max(norm_drift, abs(norm - 1.0))
    passed = worst < 1e-6 and norm_drift < 1e-10
    report(9, passed,
           f"max pointwise |spectral - closed form| = {worst:.2e}, "
           f"norm drift = {norm_drift:.2e}")
