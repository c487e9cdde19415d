"""Wiener streams, Euler-Maruyama integration, coupling, and the Picard solver."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from stochmech import sde
from stochmech import wavefunction as wf
from stochmech.errors import GridTooNarrowWarning, NoConvergence
from stochmech.scenarios import GaussianInitialSampler, Scenario
from stochmech.wavefunction import DriftField


def oscillator_drift(nu=0.5):
    return wf.drift(wf.harmonic_ground_state(), nu)


def free_drift(nu=0.5):
    return wf.drift(wf.free_gaussian_state(), nu)


def zero_field(x, t):
    return np.zeros_like(np.asarray(x, dtype=float))


def zero_drift():
    return DriftField(zero_field)


# ---------------------------------------------------------------------------
# parameters and increments
# ---------------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        sde.SimParams(nu=0.0, dt=1e-3, horizon=1.0)
    with pytest.raises(ValueError):
        sde.SimParams(nu=0.5, dt=-1e-3, horizon=1.0)
    with pytest.raises(ValueError):
        sde.SimParams(nu=0.5, dt=1e-3, horizon=0.0)
    with pytest.raises(ValueError):
        sde.SimParams(nu=0.5, dt=1e-3, horizon=1.0005)
    with pytest.raises(ValueError, match="^seed: must be non-negative$"):
        sde.SimParams(nu=0.5, dt=1e-3, horizon=1.0, seed=-1)
    params = sde.SimParams(nu=0.5, dt=1e-3, horizon=50.0)
    assert params.steps == 50000
    times = params.times()
    assert times[0] == 0.0 and len(times) == 50001


@pytest.mark.parametrize("name", ["nu", "dt", "horizon"])
def test_params_refuse_non_finite_fields(name):
    fields = dict(nu=0.5, dt=1e-3, horizon=1.0)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^{name}: must be positive and finite$"):
            sde.SimParams(**{**fields, name: value})


@pytest.mark.parametrize("horizon, dt", [(1.0, 1e-300), (1e300, 1.0), (1e300, 1e-300)])
def test_params_refuse_more_steps_than_numpy_can_index(horizon, dt):
    # before, the first two failed inside the run and the last overflowed
    # round() with an OverflowError
    with pytest.raises(ValueError, match="^horizon/dt: horizon / dt must be at most"):
        sde.SimParams(nu=0.5, dt=dt, horizon=horizon)
    assert sde.SimParams(nu=0.5, dt=1.0, horizon=2.0 ** 62).steps == 2 ** 62


@pytest.mark.parametrize("dt, horizon", [(1e-3, 10.0), (5e-4, 2.561), (0.1, 3.0)])
def test_mesh_rows_built_alone_equal_the_whole_mesh_bitwise(dt, horizon):
    params = sde.SimParams(nu=0.5, dt=dt, horizon=horizon)
    whole = params.times()
    steps = params.steps
    for start, stop in [(0, 1), (0, steps + 1), (1, 2), (7, steps), (steps, steps + 1),
                        (steps // 2, steps // 2 + 513)]:
        stop = min(stop, steps + 1)
        rows = params.times(start, stop)
        assert np.array_equal(rows.view(np.int64), whole[start:stop].view(np.int64))


@pytest.mark.parametrize("nu,dt,expected_var", [
    (0.5, 1e-3, 1e-3),
    (1.0, 0.5, 1.0),
])
def test_wiener_increment_moments(nu, dt, expected_var):
    params = sde.SimParams(nu=nu, dt=dt, horizon=200000 * dt, seed=7)
    dw = sde.wiener_increments(params)
    n = len(dw)
    se_mean = math.sqrt(expected_var / n)
    se_var = expected_var * math.sqrt(2.0 / n)
    assert abs(dw.mean()) < 5.0 * se_mean
    assert abs(dw.var() - expected_var) < 5.0 * se_var


def test_wiener_increments_deterministic_per_path():
    params = sde.SimParams(nu=0.5, dt=1e-3, horizon=1.0, seed=11, path_index=3)
    a = sde.wiener_increments(params)
    b = sde.wiener_increments(params)
    assert np.array_equal(a, b)
    other = sde.wiener_increments(params.with_path_index(4))
    assert not np.array_equal(a, other)


def test_initial_draw_independent_of_increments():
    params = sde.SimParams(nu=0.5, dt=1e-3, horizon=1.0, seed=11, path_index=3)
    sampler = GaussianInitialSampler(sigma=math.sqrt(0.5))
    x0 = sde.draw_initial(params, sampler)
    assert x0 == sde.draw_initial(params, sampler)
    # drawing x0 does not shift the increment stream
    assert np.array_equal(sde.wiener_increments(params), sde.wiener_increments(params))


@pytest.mark.parametrize("n", [1, 64, 4095, 4097])
@pytest.mark.parametrize("kind", ["oscillator-ground", "grid-custom"])
def test_samplers_draw_each_paths_position_from_its_own_stream(kind, n):
    # one transform per chunk equals the per-path scalar draw bit for bit;
    # np.interp precomputes its slopes once a chunk has more points than the
    # 4,096-point table
    sampler = Scenario(kind=kind, nu=0.5).initial_sampler()
    x0 = sde.initial_positions(9, range(n), sampler)
    rngs = sde.path_rngs(9, range(n), sde.STREAM_INITIAL)
    if kind == "grid-custom":
        assert len(sampler.x) == 4096
        expected = [float(np.interp(rng.random(), sampler.cdf, sampler.x)) for rng in rngs]
    else:
        expected = [math.sqrt(0.5) * rng.standard_normal() for rng in rngs]
    assert x0.shape == (n,)
    assert np.array_equal(x0.view(np.int64), np.array(expected).view(np.int64))


# ---------------------------------------------------------------------------
# stream seeding
# ---------------------------------------------------------------------------

def seed_sequence_rng(seed, index, stream):
    """The stream contract's reference route, one SeedSequence per stream."""
    ss = np.random.SeedSequence(seed, spawn_key=(index, stream))
    return np.random.Generator(np.random.PCG64(ss))


@pytest.mark.parametrize("seed", [0, 42, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 7])
@pytest.mark.parametrize("indices", [[0], [2**32 - 1], [2**32],
                                     list(range(2**32 - 3, 2**32 + 3))])
@pytest.mark.parametrize("stream", [sde.STREAM_NOISE, sde.STREAM_INITIAL])
def test_path_rngs_match_seed_sequence(seed, indices, stream):
    words = sde._pcg64_seeds(seed, indices, stream)
    rngs = list(sde.path_rngs(seed, indices, stream))
    assert len(words) == len(rngs) == len(indices)
    for row, rng, index in zip(words, rngs, indices):
        ss = np.random.SeedSequence(seed, spawn_key=(index, stream))
        assert np.array_equal(row, ss.generate_state(4, np.uint64))
        expected = seed_sequence_rng(seed, index, stream).standard_normal(1000)
        assert np.array_equal(rng.standard_normal(1000), expected)


def test_path_rngs_refuse_negative_keys():
    with pytest.raises(ValueError):
        sde.path_rngs(-1, [0])
    with pytest.raises(ValueError):
        sde.path_rngs(0, [3, -1])


def test_ensemble_kernel_builds_no_seed_sequence(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the kernel built a SeedSequence")

    params = sde.SimParams(nu=0.5, dt=1e-2, horizon=0.5, seed=5)
    interacting, free = oscillator_drift(), free_drift()
    sampler = GaussianInitialSampler(sigma=math.sqrt(0.5))
    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    chunk = sde.simulate_coupled_ensemble(interacting, free, sampler, params, range(6),
                                          record_indices=[0, params.steps])
    monkeypatch.undo()
    for i in range(6):
        x0 = sampler([seed_sequence_rng(5, i, sde.STREAM_INITIAL)])[0]
        dw = params.noise_scale * seed_sequence_rng(5, i, sde.STREAM_NOISE).standard_normal(
            params.steps)
        path = sde.integrate(interacting, x0, params, increments=dw)
        assert chunk.recorded_x[0, i] == x0
        assert chunk.recorded_x[1, i] == path.positions[-1]


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------

def test_reconstruction_identity_bitwise():
    params = sde.SimParams(nu=0.5, dt=1e-3, horizon=2.0, seed=5)
    field = oscillator_drift()
    path = sde.integrate(field, 0.4, params)
    x, t, dw = path.positions, path.times, path.increments
    rebuilt = x[:-1] + field(x[:-1], 0.0) * params.dt + dw
    assert np.array_equal(x[1:], rebuilt)


def test_zero_drift_gives_pure_wiener_path():
    params = sde.SimParams(nu=0.5, dt=1e-3, horizon=1.0, seed=9)
    path = sde.integrate(zero_drift(), 0.25, params)
    expected = np.cumsum(np.concatenate(([0.25], path.increments)))
    assert np.array_equal(path.positions, expected)


def test_integrate_counts_out_of_domain_excursions():
    params = sde.SimParams(nu=0.5, dt=1e-3, horizon=1.0, seed=2)
    narrow = DriftField(zero_field, domain=(-0.01, 0.01))
    path = sde.integrate(narrow, 0.0, params)
    assert path.ood_count > 0


def test_ou_ensemble_stays_stationary():
    # drift -2 nu x with x0 ~ N(0, 1/2): variance 1/2 at all sampled times
    nu, m = 0.5, 3000
    params = sde.SimParams(nu=nu, dt=1e-3, horizon=2.0, seed=31)
    chunk = sde.simulate_coupled_ensemble(
        oscillator_drift(nu), oscillator_drift(nu),
        GaussianInitialSampler(sigma=math.sqrt(0.5)), params, range(m),
        record_indices=[0, 500, 1000, 2000])
    band = 3.0 * 0.5 * math.sqrt(2.0 / m)
    for row in chunk.recorded_x:
        assert abs(row.var() - 0.5) < band


def test_ou_ensemble_covariance_matches_exponential_decay():
    nu, m, lag = 0.5, 3000, 1.0
    params = sde.SimParams(nu=nu, dt=1e-3, horizon=2.0, seed=32)
    chunk = sde.simulate_coupled_ensemble(
        oscillator_drift(nu), oscillator_drift(nu),
        GaussianInitialSampler(sigma=math.sqrt(0.5)), params, range(m),
        record_indices=[1000, 2000])
    prod = chunk.recorded_x[0] * chunk.recorded_x[1]
    expected = 0.5 * math.exp(-2.0 * nu * lag)
    stderr = prod.std(ddof=1) / math.sqrt(m)
    assert abs(prod.mean() - expected) < 5.0 * stderr


# ---------------------------------------------------------------------------
# co_integrate
# ---------------------------------------------------------------------------

def test_identity_coupling_is_exact():
    params = sde.SimParams(nu=0.5, dt=1e-3, horizon=2.0, seed=13)
    field = free_drift()
    path = sde.integrate(field, -0.7, params)
    pair = sde.co_integrate((field, field), path)
    assert np.array_equal(pair.free_positions, path.positions)


def test_zero_noise_coupling_stays_at_origin():
    params = sde.SimParams(nu=0.5, dt=1e-3, horizon=1.0, seed=0)
    zeros = np.zeros(params.steps)
    path = sde.integrate(oscillator_drift(), 0.0, params, increments=zeros)
    assert np.all(path.positions == 0.0)
    pair = sde.co_integrate((oscillator_drift(), free_drift()), path)
    assert np.all(pair.free_positions == 0.0)


def test_shared_noise_identity_bitwise():
    params = sde.SimParams(nu=0.5, dt=1e-3, horizon=2.0, seed=13)
    interacting, free = oscillator_drift(), free_drift()
    path = sde.integrate(interacting, 0.6, params)
    pair = sde.co_integrate((interacting, free), path)
    xf, t, dw = pair.free_positions, path.times, path.increments
    rebuilt = np.array([
        xf[k] + float(free(xf[k], t[k])) * params.dt + dw[k]
        for k in range(len(dw))
    ])
    assert np.array_equal(xf[1:], rebuilt)


# ---------------------------------------------------------------------------
# picard_solve
# ---------------------------------------------------------------------------

def test_picard_identity_case_converges_immediately():
    params = sde.SimParams(nu=0.5, dt=1e-3, horizon=1.0, seed=3)
    field = free_drift()
    path = sde.integrate(field, 0.1, params)
    xf, iterations, history = sde.picard_solve((field, field), path.positions,
                                               path.times, params.dt)
    assert iterations == 1
    assert history[0] == 0.0
    assert np.array_equal(xf, path.positions)


def test_picard_agrees_with_co_integration():
    params = sde.SimParams(nu=0.5, dt=1e-3, horizon=10.0, seed=17)
    interacting, free = oscillator_drift(), free_drift()
    for index in range(3):
        path = sde.integrate(interacting, 0.5, params.with_path_index(index))
        direct = sde.co_integrate((interacting, free), path)
        xf, iterations, history = sde.picard_solve((interacting, free), path.positions,
                                                   path.times, params.dt, tol=1e-10)
        assert np.max(np.abs(xf - direct.free_positions)) < 1e-8
        ratios = np.array(history[1:]) / np.array(history[:-1])
        assert np.all(ratios < 0.9)


def test_picard_raises_no_convergence():
    params = sde.SimParams(nu=0.5, dt=1e-3, horizon=10.0, seed=29)
    interacting, free = oscillator_drift(), free_drift()
    path = sde.integrate(interacting, 0.5, params)
    with pytest.raises(NoConvergence) as err:
        sde.picard_solve((interacting, free), path.positions, path.times, params.dt,
                         max_iter=2)
    assert err.value.max_iter == 2
    assert err.value.last_residual > 0.0


# ---------------------------------------------------------------------------
# batched engine
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 5, 70])
def test_batch_matches_single_path_bitwise(monkeypatch, n):
    # a small noise block makes the 500-step run cross block boundaries and
    # end on a short one; 3 and 5 paths fill part of one noise tile, 70 a
    # full tile and part of a second
    monkeypatch.setattr(sde, "BLOCK", 128)
    assert n % sde.TILE != 0
    nu = 0.5
    params = sde.SimParams(nu=nu, dt=1e-3, horizon=0.5, seed=41)
    interacting, free = oscillator_drift(nu), free_drift(nu)
    sampler = GaussianInitialSampler(sigma=math.sqrt(0.5))
    chunk = sde.simulate_coupled_ensemble(
        interacting, free, sampler, params, range(n),
        record_indices=np.arange(params.steps + 1))
    for i in range(n):
        p = params.with_path_index(i)
        x0 = sde.draw_initial(p, sampler)
        path = sde.integrate(interacting, x0, p)
        pair = sde.co_integrate((interacting, free), path)
        assert np.array_equal(chunk.recorded_x[:, i], path.positions)
        assert np.array_equal(chunk.recorded_xf[:, i], pair.free_positions)


def test_noise_blocks_are_each_paths_own_increments(monkeypatch):
    # in 128-step blocks: 500 steps end on a short block; 127 and 128 steps
    # are one block, drawn by generators that are not kept, and 129 steps
    # keep them for a one-step second block.  70 paths fill one noise tile
    # and part of a second, 1, TILE and TILE + 1 paths one tile or just past
    monkeypatch.setattr(sde, "BLOCK", 128)
    tile = sde.TILE
    cases = [(500, range(3, 73))] + [(steps, range(3, 3 + n)) for steps in (127, 128, 129)
                                     for n in (1, tile, tile + 1)]
    for steps, indices in cases:
        params = sde.SimParams(nu=0.5, dt=1e-3, horizon=steps * 1e-3, seed=43)
        assert params.steps == steps
        blocks = [(k, dw.copy()) for k, dw in sde._noise_blocks(params, indices)]
        assert [k for k, _ in blocks] == list(range(0, steps, 128))
        dw = np.concatenate([block for _, block in blocks])
        assert dw.shape == (params.steps, len(indices))
        for j, i in enumerate(indices):
            own = sde.wiener_increments(params.with_path_index(i))
            assert np.array_equal(dw[:, j].view(np.int64), own.view(np.int64)), (steps, i)


def test_a_one_block_walk_holds_at_most_a_tile_of_generators():
    # 2,000 paths x 250 steps, the shape of a grid-run chunk.  Beyond its
    # noise buffer and tile the walk holds the seed words (62 KiB), a tile's
    # generators (64 x 0.8 KiB) and numpy's copy buffers, about 250 KiB in
    # all; holding every generator adds 1.6 MiB
    params = sde.SimParams(nu=0.5, dt=1e-3, horizon=0.25, seed=42)
    n = 2000
    buffers = (params.steps * n + sde.TILE * params.steps) * 8
    tracemalloc.start()
    try:
        for _ in sde._noise_blocks(params, range(n)):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < buffers + 512 * 1024, (peak, buffers)


def test_a_multi_block_walk_holds_one_block_of_noise():
    # 5,000 paths over three blocks, the shape of a pooled oscillator-run
    # chunk.  Beyond its noise buffer and tile the walk keeps every path's
    # generator (about 0.75 KiB each) for the later blocks.  The ceiling holds
    # a (256 x 5,000) buffer, 9.8 MiB, and is broken by a 512-step one
    n = 5000
    params = sde.SimParams(nu=0.5, dt=1e-3, horizon=3 * sde.BLOCK * 1e-3, seed=42)
    assert params.steps == 3 * sde.BLOCK
    buffers = (sde.BLOCK * n + sde.TILE * sde.BLOCK) * 8
    tracemalloc.start()
    try:
        blocks = sum(1 for _ in sde._noise_blocks(params, range(n)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert blocks == 3
    assert peak < buffers + n * 768 + 512 * 1024, (peak, buffers)
    assert peak < 16 * 2 ** 20, peak


def test_block_size_does_not_change_the_ensemble(monkeypatch):
    # 5,000 steps cross the 4,096-step block boundary and nine 512-step ones
    nu = 0.5
    params = sde.SimParams(nu=nu, dt=1e-3, horizon=5.0, seed=61)
    interacting, free = oscillator_drift(nu), free_drift(nu)
    sampler = GaussianInitialSampler(sigma=math.sqrt(0.5))
    weights = np.exp(-params.times())
    chunks = []
    for block in (4096, 512):
        monkeypatch.setattr(sde, "BLOCK", block)
        chunks.append(sde.simulate_coupled_ensemble(
            interacting, free, sampler, params, range(6),
            record_indices=[512, 4096, 4097, 5000], time_weights=weights))
    for name in ("recorded_x", "recorded_xf", "weighted_integral"):
        assert np.array_equal(getattr(chunks[0], name), getattr(chunks[1], name)), name


def test_batch_checkpoints_and_weights():
    nu = 0.5
    params = sde.SimParams(nu=nu, dt=1e-3, horizon=1.0, seed=43)
    interacting, free = oscillator_drift(nu), free_drift(nu)
    sampler = GaussianInitialSampler(sigma=math.sqrt(0.5))
    times = params.times()
    weights = np.exp(-times)
    full = sde.simulate_coupled_ensemble(
        interacting, free, sampler, params, range(4),
        record_indices=np.arange(params.steps + 1), time_weights=weights)
    chunk = sde.simulate_coupled_ensemble(
        interacting, free, sampler, params, range(4),
        record_indices=[0, 250, 700, 1000], time_weights=weights)
    assert np.array_equal(chunk.recorded_x, full.recorded_x[[0, 250, 700, 1000]])
    assert np.array_equal(chunk.recorded_xf, full.recorded_xf[[0, 250, 700, 1000]])
    assert np.array_equal(chunk.weighted_integral, full.weighted_integral)
    expected = np.trapezoid(weights[:, None] * full.recorded_x, times, axis=0)
    assert np.allclose(chunk.weighted_integral, expected, atol=1e-12)


def test_batch_out_of_domain_diagnostics():
    params = sde.SimParams(nu=0.5, dt=1e-3, horizon=1.0, seed=47)
    narrow = DriftField(zero_field, domain=(-0.005, 0.005))
    sampler = GaussianInitialSampler(sigma=math.sqrt(0.5))
    chunk = sde.simulate_coupled_ensemble(narrow, narrow, sampler, params, range(3))
    assert np.all(chunk.ood_interacting > 0)


def test_scalar_and_batch_count_out_of_domain_alike():
    # one rule everywhere: x < lo or x > hi, so a NaN position is not counted
    params = sde.SimParams(nu=0.5, dt=1e-3, horizon=1.0, seed=53)
    narrow = DriftField(lambda x, t: np.where(x > 0.05, np.nan, 0.0), domain=(-0.02, 0.03))
    narrow_free = DriftField(zero_field, domain=(-0.05, 0.01))
    sampler = GaussianInitialSampler(sigma=0.02)
    chunk = sde.simulate_coupled_ensemble(narrow, narrow_free, sampler, params, range(6),
                                          record_indices=[params.steps])
    assert np.all(chunk.ood_interacting > 0) and np.all(chunk.ood_free > 0)
    assert np.any(np.isnan(chunk.recorded_x[-1]))
    for i in range(6):
        p = params.with_path_index(i)
        path = sde.integrate(narrow, sde.draw_initial(p, sampler), p)
        pair = sde.co_integrate((narrow, narrow_free), path)
        assert path.ood_count == chunk.ood_interacting[i]
        assert pair.ood_count_free == chunk.ood_free[i]


@pytest.mark.parametrize("kind, extent", [
    ("oscillator-ground", None), ("free-gaussian", None),
    ("grid-custom", (-20.0, 20.0)), ("grid-custom", (-1.5, 1.5))])
def test_free_only_walk_is_the_coupled_walk_of_x_F(kind, extent):
    # 300 steps cross the first 256-step block; the +-1.5 grid is narrow
    # enough that x_F leaves it, so the out-of-domain counts are compared too
    grid = {} if extent is None else {"grid_extent": extent, "grid_points": 256}
    scenario = Scenario(kind=kind, nu=0.5, **grid)
    params = sde.SimParams(nu=0.5, dt=1e-3, horizon=0.3, seed=67)
    assert params.steps > sde.BLOCK
    interacting, free = scenario.drift_fields()
    sampler = scenario.initial_sampler()
    rows = np.arange(params.steps + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GridTooNarrowWarning)
        coupled = sde.simulate_coupled_ensemble(interacting, free, sampler, params, range(40),
                                                record_indices=rows)
        alone = sde.simulate_coupled_ensemble(None, free, sampler, params, range(40),
                                              record_indices=rows)
    assert alone.recorded_x is None and alone.ood_interacting is None
    assert np.array_equal(alone.recorded_xf.view(np.int64), coupled.recorded_xf.view(np.int64))
    assert np.array_equal(alone.ood_free, coupled.ood_free)
    assert np.array_equal(alone.path_indices, coupled.path_indices)
    if extent == (-1.5, 1.5):
        assert alone.ood_free.sum() > 0


def test_free_only_walk_refuses_time_weights():
    params = sde.SimParams(nu=0.5, dt=1e-3, horizon=0.1, seed=71)
    sampler = GaussianInitialSampler(sigma=math.sqrt(0.5))
    with pytest.raises(ValueError, match="time_weights"):
        sde.simulate_coupled_ensemble(None, free_drift(), sampler, params, range(3),
                                      time_weights=np.ones(params.steps + 1))


@pytest.mark.parametrize("bad", [-1, 101, 5000], ids=lambda bad: f"{bad}-record_indices")
def test_batch_rejects_indices_outside_the_run(bad):
    params = sde.SimParams(nu=0.5, dt=1e-2, horizon=1.0, seed=59)
    field = oscillator_drift()
    sampler = GaussianInitialSampler(sigma=math.sqrt(0.5))
    with pytest.raises(ValueError, match=f"index {bad} "):
        sde.simulate_coupled_ensemble(field, field, sampler, params, range(2),
                                      record_indices=[0, 100, bad])


@pytest.mark.parametrize("rows", [[0, 50, 50], [0, 70, 30]])
def test_batch_rejects_indices_that_do_not_increase(rows):
    # rows are kept in the order asked for, walked by one cursor
    params = sde.SimParams(nu=0.5, dt=1e-2, horizon=1.0, seed=59)
    field = oscillator_drift()
    sampler = GaussianInitialSampler(sigma=math.sqrt(0.5))
    with pytest.raises(ValueError, match="strictly increasing"):
        sde.simulate_coupled_ensemble(field, field, sampler, params, range(2),
                                      record_indices=rows)


@pytest.mark.parametrize("integrator", [sde.integrate_batch, sde.co_integrate_batch])
@pytest.mark.parametrize("start,rows", [(0, 101), (1, 100), (60, 41), (100, 1), (-1, 10)])
def test_batch_refuses_increments_that_overrun_the_mesh(integrator, start, rows):
    params = sde.SimParams(nu=0.5, dt=1e-2, horizon=1.0, seed=59)
    with pytest.raises(ValueError, match="overrun the mesh"):
        integrator(oscillator_drift(), np.zeros(3), params, np.zeros((rows, 3)), start)


@pytest.mark.parametrize("integrator", [sde.integrate_batch, sde.co_integrate_batch])
@pytest.mark.parametrize("split", [1, 37, 99])
def test_batch_in_two_calls_equals_one_call(integrator, split):
    # the free drift reads t, so a second call must take its times from the
    # mesh at its start row
    params = sde.SimParams(nu=0.5, dt=1e-2, horizon=1.0, seed=61)
    rng = np.random.default_rng(split)
    dw = params.noise_scale * rng.standard_normal((params.steps, 4))
    x0 = rng.standard_normal(4)
    whole = integrator(free_drift(), x0, params, dw)
    head = integrator(free_drift(), x0, params, dw[:split])
    tail = integrator(free_drift(), head[-1], params, dw[split:], split)
    assert whole.shape == (params.steps + 1, 4)
    assert np.array_equal(np.concatenate([head, tail[1:]]), whole)
