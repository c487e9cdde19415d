"""Closed-form oscillator ground truth against independent quadrature and MC."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate as scipy_integrate

from stochmech import oscillator as osc
from stochmech import sde
from stochmech import wavefunction as wf
from stochmech.scenarios import Scenario

NU = 0.5


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------

def test_gamma_vanishes_at_start():
    assert osc.gamma(0.0, NU) == 0.0
    assert osc.gamma(0.0, 0.25) == 0.0


def test_gamma_closed_form_value():
    # tau = 1, nu = 1/2: pi/4 - ln(2)/2
    expected = math.pi / 4.0 - 0.5 * math.log(2.0)
    assert osc.gamma(1.0, NU) == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("nu", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("t", [0.3, 1.0, 4.0, 20.0])
def test_gamma_matches_quadrature_of_rate(nu, t):
    value, err = scipy_integrate.quad(
        lambda s: (2.0 * nu - s) / (1.0 + s * s), 0.0, t, limit=200)
    assert abs(osc.gamma(t, nu) - value) < 1e-10 + 10.0 * err


def test_gamma_asymptote():
    # gamma -> nu pi - ln(1 + tau^2)/2 as tau grows
    tau = 1e6
    expected = 2.0 * NU * (math.pi / 2.0) - 0.5 * math.log1p(tau * tau)
    assert abs(osc.gamma(tau, NU) - expected) < 2e-6


# ---------------------------------------------------------------------------
# drift pair of the scenario (the wavefunction route the integrators use)
# ---------------------------------------------------------------------------

INTERACTING, FREE = Scenario(kind="oscillator-ground", nu=NU).drift_fields()


def test_free_drift_coincides_with_interacting_drift_at_start():
    x = np.linspace(-3.0, 3.0, 13)
    assert np.allclose(FREE(x, 0.0), -2.0 * NU * x, atol=1e-14)
    assert np.allclose(FREE(x, 0.0), INTERACTING(x, 0.0), atol=1e-14)


def test_free_drift_zero_at_origin_and_at_balanced_time():
    assert FREE(0.0, 3.7) == 0.0
    # numerator 2 nu - tau vanishes at tau = 2 nu
    x = np.linspace(-5.0, 5.0, 11)
    assert np.allclose(FREE(x, 2.0 * NU), 0.0, atol=1e-14)


def test_ground_drift_matches_wavefunction_route():
    # -2 nu x at every time: the ground state is stationary
    x = np.linspace(-4.0, 4.0, 17)
    for t in (0.0, 1.3, 40.0):
        assert np.allclose(INTERACTING(x, t), -2.0 * NU * x, atol=1e-14)


def test_free_drift_matches_wavefunction_route():
    # the spreading Gaussian's drift is -x times the integrating-factor rate
    x = np.linspace(-4.0, 4.0, 17)
    for t in (0.0, 0.8, 2.5, 10.0):
        assert np.allclose(FREE(x, t), -x * osc.gamma_rate(t, NU), atol=1e-12)


def test_free_drift_matches_finite_difference_of_fields():
    state = wf.free_gaussian_state()
    x = np.linspace(-3.0, 3.0, 21)
    h = 1e-6
    dr = (state.log_amp(x + h, 2.2) - state.log_amp(x - h, 2.2)) / (2.0 * h)
    ds = (state.phase(x + h, 2.2) - state.phase(x - h, 2.2)) / (2.0 * h)
    expected = 2.0 * NU * dr + ds
    assert np.max(np.abs(FREE(x, 2.2) - expected)) < 1e-8


# ---------------------------------------------------------------------------
# coupled path closed form
# ---------------------------------------------------------------------------

def _simulate_base(params, x0=0.5):
    field = wf.drift(wf.harmonic_ground_state(), params.nu)
    return sde.integrate(field, x0, params)


def test_closed_form_trivial_cases():
    params = sde.SimParams(nu=0.5, dt=1e-3, horizon=1.0, seed=1)
    zeros = np.zeros(params.steps)
    field = wf.drift(wf.harmonic_ground_state(), params.nu)
    path = sde.integrate(field, 0.0, params, increments=zeros)
    xf = osc.coupled_path_closed_form(path.times, path.positions, NU)[0]
    assert np.allclose(xf, 0.0, atol=1e-15)
    path2 = _simulate_base(params, x0=0.8)
    xf2 = osc.coupled_path_closed_form(path2.times, path2.positions, NU)[0]
    assert xf2[0] == pytest.approx(0.8, abs=1e-14)


def test_closed_form_agrees_with_co_integration_at_order_dt():
    interacting = wf.drift(wf.harmonic_ground_state(), NU)
    free = wf.drift(wf.free_gaussian_state(), NU)
    devs = {}
    for dt in (2e-3, 1e-3):
        params = sde.SimParams(nu=NU, dt=dt, horizon=5.0, seed=71)
        per_path = []
        for index in range(10):
            path = _simulate_base(params.with_path_index(index))
            pair = sde.co_integrate((interacting, free), path)
            cf = osc.coupled_path_closed_form(path.times, path.positions, NU)[0]
            per_path.append(np.max(np.abs(pair.free_positions - cf)))
        devs[dt] = np.mean(per_path)
    c_coarse = devs[2e-3] / 2e-3
    c_fine = devs[1e-3] / 1e-3
    assert 0.5 < c_coarse / c_fine < 1.5
    assert devs[1e-3] < 0.05


def test_closed_form_matrix_matches_per_path():
    params = sde.SimParams(nu=NU, dt=1e-3, horizon=2.0, seed=77)
    paths = [_simulate_base(params.with_path_index(i), x0=0.1 * i) for i in range(4)]
    matrix = np.stack([p.positions for p in paths], axis=1)
    combined = osc.coupled_path_closed_form(params.times(), matrix, NU)[0]
    for i, p in enumerate(paths):
        single = osc.coupled_path_closed_form(p.times, p.positions, NU)[0]
        assert np.allclose(combined[:, i], single, atol=1e-14)


@pytest.mark.parametrize("shape", [(1201,), (1201, 1), (1201, 7)])
@pytest.mark.parametrize("rows", [2, 512, 600, 1200])
def test_closed_form_in_row_blocks_equals_one_call_bitwise(shape, rows):
    # blocks share their edge rows; the carry heads each block's cumulative
    # sums, so every row is that of the whole-mesh call to the last bit
    times = 1e-3 * np.arange(shape[0])
    x = 0.1 * np.random.default_rng(rows).standard_normal(shape).cumsum(axis=0)
    whole, whole_carry = osc.coupled_path_closed_form(times, x, 0.75)
    blocks, carry = [], None
    for k in range(0, len(times) - 1, rows):
        rows_k = slice(k, min(k + rows, len(times) - 1) + 1)
        xf, carry = osc.coupled_path_closed_form(times[rows_k], x[rows_k], 0.75, carry)
        blocks.append(xf if k == 0 else xf[1:])
    assert np.array_equal(np.concatenate(blocks).view(np.int64), whole.view(np.int64))
    assert np.array_equal(carry.view(np.int64), whole_carry.view(np.int64))


# ---------------------------------------------------------------------------
# exact law of the Euler scheme
# ---------------------------------------------------------------------------

def test_integral_variance_against_brute_force_double_quadrature():
    # the continuous-time variance; the scheme's differs by O(dt) (3e-5 at dt 1e-3)
    nu = 0.5
    horizon = 5.0

    def weight(t):
        g = 2.0 * nu * math.atan(t) - 0.5 * math.log1p(t * t)
        gp = (2.0 * nu - t) / (1.0 + t * t)
        return math.exp(g) * (2.0 * nu - gp)

    brute, err = scipy_integrate.dblquad(
        lambda s, t: weight(t) * weight(s) * 0.5 * math.exp(-2.0 * nu * abs(t - s)),
        0.0, horizon, 0.0, horizon, epsabs=1e-10)
    brute *= math.exp(-2.0 * nu * math.pi)
    assert osc.euler_covariance(horizon, nu, 1e-4)[0, 0] == pytest.approx(brute, abs=1e-5)


@pytest.mark.parametrize("nu", [0.25, 0.5, 1.0])
def test_momentum_variance_approaches_one_half(nu):
    # E(P^2) = 1/2 for every nu; the truncated integral sits at 1/2 - 2 nu / T
    horizon = 200.0
    value = osc.euler_covariance(horizon, nu, 1e-3)[0, 0] + 2.0 * nu / horizon
    assert value == pytest.approx(0.5, abs=2e-3)


def test_estimator_second_moments_frozen_values():
    # frozen from an independent quadrature of the same Gaussian functionals
    cov = osc.euler_covariance(50.0, NU, 1e-3)
    assert cov[0, 0] == pytest.approx(0.47981, abs=2e-4)
    assert cov[2, 2] / 50.0 ** 2 == pytest.approx(0.50021, abs=2e-4)
    assert osc.difference_bound(50.0, NU, 1e-3) / 3.0 == pytest.approx(0.0202, abs=1e-3)


@pytest.mark.parametrize("nu, horizon, dt", [(0.5, 2.0, 0.01), (0.25, 3.0, 0.02),
                                              (1.0, 1.2, 0.6)])
def test_euler_covariance_matches_the_forward_recursion(nu, horizon, dt):
    # step the covariance of the state (x, x_F, quadrature) the way the kernel
    # steps the state; the last case has 2 nu dt > 1
    steps = round(horizon / dt)
    t = dt * np.arange(steps + 1)
    c = dt * osc.momentum_quadrature_weights(t, nu)
    c[[0, -1]] *= 0.5
    cov = np.zeros((3, 3))
    cov[:2, :2] = 0.5
    noise = np.outer([1.0, 1.0, 0.0], [1.0, 1.0, 0.0])
    for k in range(steps + 1):
        if k:
            step = np.diag([1.0 - 2.0 * nu * dt, 1.0 - dt * osc.gamma_rate(t[k - 1], nu), 1.0])
            cov = step @ cov @ step.T + 2.0 * nu * dt * noise
        add = np.eye(3)
        add[2, 0] = c[k]
        cov = add @ cov @ add.T
    order = [2, 0, 1]
    expected = cov[np.ix_(order, order)]
    assert np.allclose(osc.euler_covariance(horizon, nu, dt), expected, rtol=1e-12, atol=1e-14)


def test_euler_covariance_holds_no_python_list_of_its_steps():
    # the backward recursion writes into its row; as a list of 50,001 floats
    # it peaked at 4.24 MiB here
    tracemalloc.start()
    try:
        osc.euler_covariance(50.0, NU, 1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 2 ** 20, peak


def _exact_law_under_blas_threads(threads: int) -> str:
    """repr of difference_bound(10, ...) and euler_covariance(50, ...) in a
    fresh interpreter whose numpy loaded ``threads`` BLAS threads."""
    probe = ("from stochmech import oscillator as osc; "
             "print(repr(osc.difference_bound(10.0, 0.5, 1e-3)), "
             "repr(osc.euler_covariance(50.0, 0.5, 1e-3).tolist()))")
    src = str(Path(osc.__file__).resolve().parent.parent)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, env=env).stdout


def test_exact_euler_law_does_not_depend_on_the_blas_thread_count():
    # through BLAS the bound read 0.3147515622024596 under two threads and
    # 0.31475156220245953 under one
    assert _exact_law_under_blas_threads(1) == _exact_law_under_blas_threads(2)


def test_euler_covariance_is_symmetric_bit_for_bit():
    cov = osc.euler_covariance(50.0, NU, 1e-3)
    assert np.array_equal(cov, cov.T)


def test_momentum_variance_converges_at_order_dt():
    # Var(P) of the scheme tends to the continuous (1 + 1/T^2) / 2 like dt
    horizon = 50.0
    gaps = [osc.euler_covariance(horizon, NU, dt)[2, 2] / horizon ** 2
            - 0.5 * (1.0 + 1.0 / horizon ** 2) for dt in (2e-3, 1e-3, 5e-4)]
    assert gaps[0] < 0.0
    assert gaps[0] / gaps[1] == pytest.approx(2.0, abs=0.02)
    assert gaps[1] / gaps[2] == pytest.approx(2.0, abs=0.02)


def _ensemble_chunk(nu, horizon, dt, m, seed, **kwargs):
    scenario = Scenario(kind="oscillator-ground", nu=nu)
    params = sde.SimParams(nu=nu, dt=dt, horizon=horizon, seed=seed)
    return sde.simulate_coupled_ensemble(
        *scenario.drift_fields(), scenario.initial_sampler(), params, range(m), **kwargs)


def test_momentum_integral_variance_monte_carlo():
    # ensemble check of the truncated quadrature against its exact variance
    nu, m, horizon, dt = 0.5, 4000, 50.0, 0.01
    weights = osc.momentum_quadrature_weights(sde.SimParams(nu, dt, horizon).times(), nu)
    chunk = _ensemble_chunk(nu, horizon, dt, m, 404, time_weights=weights)
    sample_var = chunk.weighted_integral.var(ddof=1)
    expected = osc.euler_covariance(horizon, nu, dt)[0, 0]
    stderr = expected * math.sqrt(2.0 / m)
    assert abs(sample_var - expected) < 4.0 * stderr


def test_joint_law_of_the_coupled_endpoints():
    # corr(x(T), x_F(T)) sees the interacting drift and the coupling, which
    # the marginal law of P does not; the 4-SE bands at the two nu are disjoint
    m, horizon, dt = 4000, 5.0, 1e-3
    targets = {}
    for nu in (0.5, 0.25):
        cov = osc.euler_covariance(horizon, nu, dt)
        targets[nu] = cov[1, 2] / math.sqrt(cov[1, 1] * cov[2, 2])
    band = 4.0 * max(1.0 - r * r for r in targets.values()) / math.sqrt(m - 3)
    assert abs(targets[0.5] - targets[0.25]) > 2.0 * band
    for nu, target in targets.items():
        chunk = _ensemble_chunk(nu, horizon, dt, m, 505, record_indices=[round(horizon / dt)])
        corr = np.corrcoef(chunk.recorded_x[0], chunk.recorded_xf[0])[0, 1]
        assert abs(corr - target) < band


# ---------------------------------------------------------------------------
# OU covariance
# ---------------------------------------------------------------------------

def test_ou_covariance_closed_form():
    assert osc.ou_covariance(2.0, 2.0, NU) == 0.5
    assert osc.ou_covariance(1.0, 2.0, NU) == pytest.approx(0.5 * math.exp(-1.0))
    assert osc.ou_covariance(0.0, 200.0, NU) < 1e-80

