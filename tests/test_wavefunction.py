"""Wave-state construction, the R/S split behind drift, propagation, momentum density."""

import math

import numpy as np
import pytest

from stochmech import wavefunction as wf
from stochmech.errors import GridTooNarrowWarning, NodeEncountered


def _norm(state):
    """h * sum |psi|^2 of a grid state."""
    return state.spacing * float(np.sum(np.abs(state.amplitude) ** 2))


# ---------------------------------------------------------------------------
# psi = exp(R + i S)
# ---------------------------------------------------------------------------

def test_decompose_free_gaussian_at_unit_elapsed_time():
    # spreading Gaussian at tau = 1: R = -x^2/4 - log(2 pi)/4, S = x^2/4 - pi/8
    state = wf.free_gaussian_state()
    x = np.linspace(-4.0, 4.0, 33)
    assert np.allclose(state.log_amp(x, 1.0),
                       -x * x / 4.0 - 0.25 * math.log(2.0 * math.pi), atol=1e-12)
    assert np.allclose(state.phase(x, 1.0), x * x / 4.0 - math.pi / 8.0, atol=1e-12)


def test_decompose_unwraps_phase_along_grid():
    # S = q x wraps many times across the support; a missed unwrap would put
    # a spike of about 2 pi / h into the drift -2 nu x + q at that node
    x = np.linspace(-10.0, 10.0, 2048)
    nu, q = 0.5, 2.0
    state = wf.WaveState.from_grid(x, np.exp(-0.5 * x * x + 1j * q * x))
    field = wf.drift(state, nu)
    xs = field.evaluator.xs
    assert np.max(np.abs(field(xs, 0.0) - (-2.0 * nu * xs + q))) < 1e-9


def test_decompose_raises_on_interior_node():
    x = np.linspace(-10.0, 10.0, 101)   # contains x = 0 exactly
    state = wf.WaveState.from_grid(x, x * np.exp(-0.5 * x * x))
    with pytest.raises(NodeEncountered, match="amplitude node inside the evaluation region"):
        wf.drift(state, 0.5)


# ---------------------------------------------------------------------------
# drift
# ---------------------------------------------------------------------------

def test_ground_state_drift_is_linear_restoring():
    nu = 0.7
    field = wf.drift(wf.harmonic_ground_state(), nu)
    x = np.linspace(-5.0, 5.0, 21)
    assert np.allclose(field(x, 0.0), -2.0 * nu * x, atol=1e-12)


def test_ground_state_drift_nu_half():
    field = wf.drift(wf.harmonic_ground_state(), 0.5)
    assert field(2.0, 0.0) == pytest.approx(-2.0, abs=1e-14)


def test_free_gaussian_drift_closed_form():
    # hand differentiation of R_F, S_F: b_F = -x (2 nu - tau) / (1 + tau^2)
    nu = 0.4
    field = wf.drift(wf.free_gaussian_state(), nu)
    x = np.linspace(-4.0, 4.0, 17)
    for t in (0.0, 0.5, 2.0, 7.0):
        expected = -x * (2.0 * nu - t) / (1.0 + t * t)
        assert np.allclose(field(x, t), expected, atol=1e-12)


def test_free_gaussian_drift_matches_finite_differences():
    nu = 0.6
    state = wf.free_gaussian_state()
    field = wf.drift(state, nu)
    x = np.linspace(-3.0, 3.0, 25)
    h, t = 1e-6, 1.3
    dr = (state.log_amp(x + h, t) - state.log_amp(x - h, t)) / (2.0 * h)
    ds = (state.phase(x + h, t) - state.phase(x - h, t)) / (2.0 * h)
    assert np.max(np.abs(field(x, t) - (2.0 * nu * dr + ds))) < 1e-8


def test_gaussian_drifts_keep_their_float_expressions_bit_for_bit():
    # the ensemble goldens rest on these exact expressions; t is an array of
    # times as the Picard solver passes it.  Signed zeros and infinities
    # check that a reordered sign changes no bit, NaNs included
    nu = 0.5
    x = np.concatenate((np.random.default_rng(2).uniform(-6.0, 6.0, 1000),
                        [0.0, -0.0, np.inf, -np.inf]))
    t = np.linspace(0.0, 5.0, 1004)
    with np.errstate(invalid="ignore"):
        held = wf.drift(wf.harmonic_ground_state(), nu)(x, t)
        spreading = wf.drift(wf.free_gaussian_state(), nu)(x, t)
        expected = 2.0 * nu * (-x / (1 + t * t)) + x * (t / (1 + t * t))
    assert np.array_equal(held.view(np.int64), (2.0 * nu * -x).view(np.int64))
    assert np.array_equal(spreading.view(np.int64), expected.view(np.int64))


def test_constant_state_has_zero_drift():
    x = np.linspace(0.0, 1.0, 64)
    state = wf.WaveState.from_grid(x, np.ones_like(x))
    field = wf.drift(state, 0.5)
    assert np.allclose(field(np.array([0.2, 0.5, 0.8]), 0.0), 0.0, atol=1e-12)


@pytest.mark.parametrize("state_fn", [
    lambda: (wf.harmonic_ground_state(), 0.0),
    lambda: (wf.free_gaussian_state(), 0.7),
])
def test_grid_drift_matches_analytic_for_gaussian_states(state_fn):
    # R and S of both families are quadratic in x, so central differences and
    # linear interpolation are exact; only roundoff remains.
    nu = 0.5
    state, t = state_fn()
    analytic = wf.drift(state, nu)
    x_eval = np.linspace(-3.0, 3.0, 301)
    target = analytic(x_eval, t)
    x = np.linspace(*wf.DEFAULT_EXTENT, 512)
    grid_field = wf.drift(wf.WaveState.from_grid(x, state.psi(x, t)), nu)
    assert np.max(np.abs(grid_field(x_eval, t) - target)) < 1e-9


def test_grid_drift_second_order_convergence():
    # non-quadratic log-amplitude and phase make the h^2 error measurable
    nu = 0.5
    x_eval = np.linspace(-2.5, 2.5, 301)
    target = 2.0 * nu * (-x_eval - 0.5 * x_eval ** 3) + np.cos(x_eval)
    errs = []
    for points in (512, 1024):
        x = np.linspace(-8.0, 8.0, points)
        psi = np.exp(-0.5 * x * x - 0.125 * x ** 4 + 1j * np.sin(x))
        field = wf.drift(wf.WaveState.from_grid(x, psi), nu)
        errs.append(np.max(np.abs(field(x_eval, 0.0) - target)))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0


def test_grid_drift_extrapolates_linearly_outside_support():
    nu = 0.5
    grid_field = wf.drift(wf.to_grid(wf.harmonic_ground_state()), nu)
    lo, hi = grid_field.domain
    assert hi < 9.0
    # ground-state drift is linear, so the extrapolated tail stays accurate
    assert grid_field(9.0, 0.0) == pytest.approx(-2.0 * nu * 9.0, rel=1e-3)


def _searchsorted_interp(ev, x):
    """GridInterpEvaluator's interpolation with the interval found by binary
    search, the reference for its uniform-spacing lookup."""
    x = np.asarray(x, dtype=float)
    i = np.clip(np.searchsorted(ev.xs, x) - 1, 0, len(ev.xs) - 2)
    x0 = ev.xs[i]
    slope = (ev.values[i + 1] - ev.values[i]) / (ev.xs[i + 1] - x0)
    return ev.values[i] + slope * (x - x0)


def _jittered_state(tmp_path):
    """The default-grid ground state on a grid uniform only to from_grid's
    tolerance, round-tripped through write_state / read_state."""
    state = wf.to_grid(wf.harmonic_ground_state())
    jitter = np.random.default_rng(5).uniform(-4e-10, 4e-10, len(state.grid))
    x = state.grid + jitter * state.spacing
    path = tmp_path / "jittered.tsv"
    wf.write_state(wf.WaveState.from_grid(x, state.amplitude), path)
    back = wf.read_state(path)
    assert not np.array_equal(back.grid, state.grid)
    return back


@pytest.mark.parametrize("source", ["default", "jittered"])
@pytest.mark.parametrize("t", [None, 0.0, 0.1, 0.25, 1.0, 2.0])
def test_grid_lookup_matches_binary_search_bit_for_bit(source, t, tmp_path, monkeypatch):
    # t None: the interacting field; otherwise the free slice at time t
    state = (wf.to_grid(wf.harmonic_ground_state()) if source == "default"
             else _jittered_state(tmp_path))
    if t is None:
        ev = wf.drift(state, 0.5).evaluator
    else:
        ev = wf.free_drift_field_from_grid(state, 0.5).evaluator._slice(t)
    lo, hi = ev.xs[0], ev.xs[-1]
    x = np.concatenate([
        np.random.default_rng(3).uniform(lo - 5.0, hi + 5.0, 10 ** 5),
        ev.xs, np.nextafter(ev.xs, -np.inf), np.nextafter(ev.xs, np.inf),
        [np.inf, -np.inf, np.nan, 0.0, -0.0, 1e300, -1e300]])
    want = _searchsorted_interp(ev, x)
    with monkeypatch.context() as patched:
        patched.setattr(np, "searchsorted", None)      # the lookup must not call it
        got = ev(x, t)
        scalars = np.array([ev(v, t) for v in x[-7:]])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(scalars.view(np.int64), want[-7:].view(np.int64))


# ---------------------------------------------------------------------------
# free propagation: FreeGridDriftEvaluator.state
# ---------------------------------------------------------------------------

def propagate(initial, t):
    return wf.FreeGridDriftEvaluator(initial, 0.5).state(t)


def test_propagate_identity_at_start_time():
    state = wf.to_grid(wf.harmonic_ground_state())
    out = propagate(state, 0.0)
    assert out.grid is state.grid
    assert np.max(np.abs(out.amplitude - state.amplitude)) < 1e-15


@pytest.mark.parametrize("tau", [0.5, 2.0])
def test_spectral_propagation_matches_closed_form(tau):
    initial = wf.to_grid(wf.harmonic_ground_state())
    out = propagate(initial, tau)
    exact = wf.free_gaussian_state().psi(initial.grid, tau)
    assert np.max(np.abs(out.amplitude - exact)) < 1e-6
    assert abs(_norm(out) - 1.0) < 1e-10


@pytest.mark.parametrize("points", [4096, 1023])
def test_half_spectrum_phase_factor_equals_the_full_one_bitwise(points):
    # the step evaluates exp(-i k^2 tau / 2) over modes 0..n // 2 and mirrors it
    initial = wf.to_grid(wf.harmonic_ground_state(), points=points)
    evaluator = wf.FreeGridDriftEvaluator(initial, 0.5)
    for t in (0.0, 0.001, 0.7, 2.0, -2.0):
        full = np.exp(-0.5j * evaluator.k2 * t)
        expected = np.fft.ifft(evaluator.spectrum * full)
        out = evaluator.state(t).amplitude
        assert np.array_equal(out.view(np.int64), expected.view(np.int64)), t


def test_propagation_is_time_reversible():
    initial = wf.to_grid(wf.harmonic_ground_state())
    forward = propagate(initial, 1.5)
    back = propagate(forward, -1.5)
    assert np.max(np.abs(back.amplitude - initial.amplitude)) < 1e-9
    assert abs(_norm(forward) - _norm(initial)) < 1e-10


def test_propagation_warns_when_grid_too_narrow():
    x = np.linspace(-4.0, 4.0, 256)
    state = wf.WaveState.from_grid(x, np.exp(-0.5 * x * x))
    with pytest.warns(GridTooNarrowWarning):
        propagate(state, 3.0)


# ---------------------------------------------------------------------------
# momentum density
# ---------------------------------------------------------------------------

def test_momentum_density_of_gaussian():
    density = wf.momentum_density(wf.to_grid(wf.harmonic_ground_state()))
    expected = np.exp(-density.p ** 2) / math.sqrt(math.pi)
    assert np.max(np.abs(density.density - expected)) < 1e-6
    p, rho = density.p, density.density
    integral = np.trapezoid(rho, p)
    variance = np.trapezoid(p * p * rho, p) / integral
    assert abs(integral - 1.0) < 1e-6
    assert variance == pytest.approx(0.5, abs=1e-6)
    assert np.all(density.density >= 0.0)


def test_momentum_density_translation_invariant():
    x = np.linspace(-20.0, 20.0, 4096)
    base = wf.WaveState.from_grid(x, np.exp(-0.5 * x * x))
    shifted = wf.WaveState.from_grid(x, np.exp(-0.5 * (x - 2.0) ** 2))
    rho0 = wf.momentum_density(base)
    rho1 = wf.momentum_density(shifted)
    assert np.max(np.abs(rho0.density - rho1.density)) < 1e-8


def test_momentum_density_shifts_under_modulation():
    q = 3.0
    x = np.linspace(-20.0, 20.0, 4096)
    state = wf.WaveState.from_grid(x, np.exp(-0.5 * x * x + 1j * q * x))
    density = wf.momentum_density(state)
    expected = np.exp(-(density.p - q) ** 2) / math.sqrt(math.pi)
    assert np.max(np.abs(density.density - expected)) < 1e-6


# ---------------------------------------------------------------------------
# built-in states
# ---------------------------------------------------------------------------

def test_make_harmonic_state_profile():
    state = wf.harmonic_ground_state()
    x = np.linspace(-2.0, 2.0, 11)
    ratio = state.psi(x, 0.0) / np.exp(-0.5 * x * x)
    assert np.allclose(ratio, ratio[0], atol=1e-12)


def test_make_free_state_spreads_like_gaussian_family():
    state = wf.free_gaussian_state()
    field = wf.drift(state, 0.5)
    x = np.array([1.0, -2.0])
    t = 1.0
    assert np.allclose(field(x, t), -x * (1.0 - t) / (1.0 + t * t), atol=1e-12)


def test_make_grid_state_is_normalized():
    state = wf.to_grid(wf.harmonic_ground_state(), points=1024)
    assert isinstance(state, wf.WaveState)
    assert abs(_norm(state) - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_state_table_roundtrip(tmp_path):
    x = np.linspace(*wf.DEFAULT_EXTENT, 512)
    state = wf.WaveState.from_grid(x, wf.free_gaussian_state().psi(x, 0.4))
    path = tmp_path / "state.tsv"
    wf.write_state(state, path)
    back = wf.read_state(path)
    assert np.max(np.abs(back.amplitude - state.amplitude)) < 1e-12
    assert np.allclose(back.grid, state.grid)


def test_density_table_columns(tmp_path):
    density = wf.momentum_density(wf.to_grid(wf.harmonic_ground_state()))
    path = tmp_path / "density.tsv"
    wf.write_density(density, path)
    header = path.read_text().splitlines()[0]
    assert header.split("\t") == ["p", "rho"]
