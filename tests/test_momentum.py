"""Momentum extraction, P = x_F(T) / T, and ensemble collection."""

import dataclasses
import functools
import math
import time
import warnings

import numpy as np
import pytest

from stochmech import momentum, sde, verify
from stochmech import wavefunction as wf
from stochmech.errors import GridTooNarrowWarning
from stochmech.scenarios import GaussianInitialSampler, GridInitialSampler, Scenario

OSC = Scenario(kind="oscillator-ground", nu=0.5)


def momentum_of(params, free_positions):
    """``collect``'s momentum for one free path on the whole mesh, reduced by
    ``EnsemblePlan.reduce`` from the rows the kernel keeps."""
    ensemble = momentum.plan(OSC, params, 1)
    rows = np.asarray(free_positions)[ensemble.rows][:, None]
    chunk = sde.EnsembleChunk(path_indices=np.arange(1), recorded_x=rows, recorded_xf=rows,
                              weighted_integral=None, ood_interacting=np.zeros(1, dtype=int),
                              ood_free=np.zeros(1, dtype=int))
    return float(ensemble.reduce([chunk]).values[0])


# ---------------------------------------------------------------------------
# the momentum reduction
# ---------------------------------------------------------------------------

def test_ratio_policy_on_straight_line_path():
    params = sde.SimParams(nu=0.5, dt=1e-3, horizon=2.0, seed=0)
    v = 0.37
    value = momentum_of(params, v * params.times())
    assert value == pytest.approx(v, abs=1e-14)
    # only the last row counts
    free = v * params.times() + np.sin(params.times())
    assert momentum_of(params, free) == free[-1] / (params.steps * params.dt)


def test_momentum_divides_by_steps_times_dt_bitwise():
    # at horizon 0.7, 700 steps of 1e-3 span 0.7000000000000001, not 0.7
    params = sde.SimParams(nu=0.5, dt=1e-3, horizon=0.7, seed=53)
    assert params.steps * params.dt != params.horizon
    ensemble = momentum.collect(OSC, params, 20)
    xf = ensemble.extras["xf_final"]
    assert np.array_equal(ensemble.values.view(np.int64),
                          (xf / (params.steps * params.dt)).view(np.int64))
    assert not np.array_equal(ensemble.values, xf / params.horizon)


# ---------------------------------------------------------------------------
# collect
# ---------------------------------------------------------------------------

def test_collect_single_path_reproducible():
    params = sde.SimParams(nu=0.5, dt=1e-3, horizon=2.0, seed=99)
    a = momentum.collect(OSC, params, 1)
    b = momentum.collect(OSC, params, 1)
    assert np.array_equal(a.values, b.values)
    assert list(a.path_indices) == [0]
    assert len(a) == 1


def test_collect_requires_positive_ensemble():
    params = sde.SimParams(nu=0.5, dt=1e-3, horizon=1.0, seed=1)
    with pytest.raises(ValueError):
        momentum.collect(OSC, params, 0)


@pytest.mark.parametrize("field, value", [("nu", 2.0)])
def test_plan_refuses_params_that_disagree_with_the_scenario(field, value):
    # the drift would follow the scenario and the provenance the params
    params = dataclasses.replace(sde.SimParams(nu=0.5, dt=1e-3, horizon=1.0, seed=1),
                                 **{field: value})
    message = f"params.{field} = {value!r} differs from scenario.{field} = {getattr(OSC, field)!r}"
    with pytest.raises(ValueError, match=message):
        momentum.collect(OSC, params, 10)


def test_collect_matches_per_path_estimates():
    params = sde.SimParams(nu=0.5, dt=1e-3, horizon=2.0, seed=7)
    ensemble = momentum.collect(OSC, params, 3)
    interacting, free = OSC.drift_fields()
    sampler = OSC.initial_sampler()
    for i in range(3):
        p = params.with_path_index(i)
        x0 = sde.draw_initial(p, sampler)
        path = sde.integrate(interacting, x0, p)
        pair = sde.co_integrate((interacting, free), path)
        assert ensemble.values[i] == momentum_of(p, pair.free_positions)
        assert ensemble.extras["xf_final"][i] == pair.free_positions[-1]


def chunk_at_most(monkeypatch, paths, pooled=None):
    """Cap chunks at ``paths`` in process, and at ``pooled`` on a pool."""
    monkeypatch.setattr(momentum, "DEFAULT_CHUNK", paths)
    if pooled is not None:
        monkeypatch.setattr(momentum, "MAX_CHUNK", pooled)


def test_collect_invariant_under_chunking_and_workers(monkeypatch):
    params = sde.SimParams(nu=0.5, dt=1e-3, horizon=1.0, seed=11)
    chunk_at_most(monkeypatch, 2, pooled=2)
    small_chunks = momentum.collect(OSC, params, 7)
    pooled = momentum.collect(OSC, params, 7, workers=2)
    chunk_at_most(monkeypatch, 512)
    one_chunk = momentum.collect(OSC, params, 7)
    assert np.array_equal(small_chunks.values, one_chunk.values)
    assert np.array_equal(small_chunks.values, pooled.values)


@pytest.mark.parametrize("chunk, workers, jobs", [
    (1, 1, 11), (3, 1, 4), (2048, 1, 1), (1, 2, 2), (3, 2, 2), (2048, 2, 1)])
def test_collect_is_the_same_for_any_default_chunk(monkeypatch, chunk, workers, jobs):
    params = sde.SimParams(nu=0.5, dt=1e-3, horizon=0.05, seed=19)
    request = dict(scenario=OSC, params=params, ensemble_size=11,
                   time_weights=np.linspace(0.0, 1.0, params.steps + 1),
                   record_times=[0.01, 0.03])
    reference = momentum.collect(**request)
    chunk_at_most(monkeypatch, chunk)
    assert len(momentum.plan(**request, workers=workers).jobs) == jobs
    ensemble = momentum.collect(**request, workers=workers)
    assert np.array_equal(ensemble.values.view(np.int64), reference.values.view(np.int64))
    assert np.array_equal(ensemble.path_indices, reference.path_indices)
    assert ensemble.extras.keys() == reference.extras.keys()
    for key, value in reference.extras.items():
        assert np.array_equal(ensemble.extras[key], value), key


@pytest.mark.parametrize("m, cap, workers", [
    (1, 2048, 2), (5, 5, 2), (7, 2, 2), (10, 4, 3), (9, 3, 1)])
def test_plan_splits_paths_into_contiguous_chunks(monkeypatch, m, cap, workers):
    params = sde.SimParams(nu=0.5, dt=1e-3, horizon=0.01, seed=5)
    chunk_at_most(monkeypatch, cap)
    plan = momentum.plan(OSC, params, m)
    chunks = momentum.run_jobs(plan.jobs, workers)
    assert len(chunks) == -(-m // cap)
    start = 0
    for chunk in chunks:
        assert 1 <= len(chunk.path_indices) <= cap
        assert list(chunk.path_indices) == list(range(start, start + len(chunk.path_indices)))
        start += len(chunk.path_indices)
    assert start == m


@pytest.mark.parametrize("m, workers", [
    (1, 4), (2048, 2), (2049, 2), (2050, 3), (10_000, 1), (10_000, 2), (10_000, 3),
    (10_000, 1000), (16_385, 2), (50_000, 2), (1_000_003, 7)])
def test_chunk_rule_gives_each_pool_process_an_equal_share(m, workers):
    chunks = momentum.chunk_indices(m, workers)
    assert np.array_equal(np.concatenate(chunks), np.arange(m))
    sizes = [len(chunk) for chunk in chunks]
    assert max(sizes) <= momentum.MAX_CHUNK
    assert max(sizes) - min(sizes) <= 1
    pool = min(workers, len(chunks))           # the pool run_jobs starts
    if pool > 1:
        assert len(chunks) % pool == 0
    else:
        # in process: as many chunks as DEFAULT_CHUNK cuts, none larger
        assert len(chunks) == -(-m // momentum.DEFAULT_CHUNK)
        assert max(sizes) <= momentum.DEFAULT_CHUNK


def test_chunk_rule_caps_the_pool_at_the_default_chunking(monkeypatch):
    # the pool never grows beyond the jobs that DEFAULT_CHUNK would cut
    assert [len(c) for c in momentum.chunk_indices(10_000, 1000)] == [2000] * 5
    assert [len(c) for c in momentum.chunk_indices(10_000, 2)] == [5000] * 2
    assert [len(c) for c in momentum.chunk_indices(10_000, 1)] == [2000] * 5
    assert [len(c) for c in momentum.chunk_indices(2050, 1)] == [1025] * 2
    chunk_at_most(monkeypatch, 3)
    assert [len(c) for c in momentum.chunk_indices(10, 1)] == [3, 3, 2, 2]
    assert [len(c) for c in momentum.chunk_indices(10, 4)] == [3, 3, 2, 2]


def test_pooled_default_plan_matches_the_in_process_one():
    # 2,050 paths: 2 x 1,025 in process and on a pool of 2 or 3
    params = sde.SimParams(nu=0.5, dt=1e-3, horizon=0.01, seed=23)
    ensembles = [momentum.collect(OSC, params, 2050, workers=w) for w in (1, 2, 3)]
    for ensemble in ensembles[1:]:
        assert np.array_equal(ensemble.values.view(np.int64),
                              ensembles[0].values.view(np.int64))
        assert np.array_equal(ensemble.path_indices, np.arange(2050))


def test_interleaved_ensembles_on_one_pool_match_their_own_collect(monkeypatch):
    weighted = sde.SimParams(nu=0.5, dt=1e-3, horizon=0.5, seed=61)
    recorded = sde.SimParams(nu=0.25, dt=1e-3, horizon=0.4, seed=62)
    other = Scenario(kind="oscillator-ground", nu=0.25)
    requests = [
        dict(scenario=OSC, params=weighted, ensemble_size=7,
             time_weights=np.linspace(0.0, 1.0, weighted.steps + 1)),
        dict(scenario=other, params=recorded, ensemble_size=5, record_times=[0.1, 0.2]),
    ]
    chunk_at_most(monkeypatch, 2)
    plans = [momentum.plan(**request) for request in requests]
    # alternate the two ensembles' chunks: a, b, a, b, a, b, a
    order = sorted((i, k) for k, p in enumerate(plans) for i in range(len(p.jobs)))
    results = momentum.run_jobs([plans[k].jobs[i] for i, k in order], workers=2)
    for k, (p, request) in enumerate(zip(plans, requests)):
        pooled = p.reduce([r for (_, owner), r in zip(order, results) if owner == k])
        alone = momentum.collect(**request)
        assert np.array_equal(pooled.values.view(np.int64), alone.values.view(np.int64))
        assert np.array_equal(pooled.path_indices, alone.path_indices)
        assert pooled.extras.keys() == alone.extras.keys()
        for key, value in alone.extras.items():
            assert np.array_equal(pooled.extras[key], value), key
        assert pooled.provenance == alone.provenance


def _failing_job():
    raise ValueError("first job fails")


def _marking_job(directory, i):
    time.sleep(0.05)
    (directory / str(i)).write_text("")


def test_run_jobs_cancels_queued_jobs_after_a_failure(tmp_path):
    jobs = [_failing_job] + [functools.partial(_marking_job, tmp_path, i) for i in range(40)]
    with pytest.raises(ValueError, match="first job fails"):
        momentum.run_jobs(jobs, workers=2)
    # only the jobs already handed to a worker when the error arrived still
    # run; without the cancel all 40 would before the error is raised
    assert len(list(tmp_path.iterdir())) <= 5


def test_collect_extras_and_provenance():
    params = sde.SimParams(nu=0.5, dt=1e-3, horizon=1.0, seed=13)
    weights = np.ones(params.steps + 1)
    ensemble = momentum.collect(OSC, params, 4, time_weights=weights,
                                record_times=[0.0, 0.5])
    assert ensemble.provenance["scenario"] == "oscillator-ground"
    assert ensemble.provenance["ensemble_size"] == 4
    assert ensemble.extras["recorded_x"].shape == (4, 2)
    assert np.array_equal(ensemble.extras["recorded_x"][:, 0], ensemble.extras["x0"])
    assert np.all(ensemble.extras["out_of_domain"] == 0)
    # unit weights: accumulator equals the plain trapezoid time integral of x
    assert ensemble.extras["weighted_integrals"].shape == (4,)
    assert list(ensemble.path_indices) == [0, 1, 2, 3]


def test_record_times_join_the_policy_checkpoints(monkeypatch):
    # t = 0 and T are rows the kernel keeps anyway, so each asks for one
    # row; t = 0.3 and 0.5 add rows between them
    params = sde.SimParams(nu=0.5, dt=1e-3, horizon=2.0, seed=71)
    times = [0.0, 0.3, 0.5, 2.0]
    chunk_at_most(monkeypatch, 2)
    plain = momentum.collect(OSC, params, 5)
    final = momentum.collect(OSC, params, 5, record_times=[2.0])
    recorded = momentum.collect(OSC, params, 5, record_times=times)
    assert momentum.plan(OSC, params, 5, record_times=times).rows == [0, 300, 500, 2000]
    assert np.array_equal(plain.values, recorded.values)
    assert np.array_equal(final.extras["recorded_x"][:, 0], recorded.extras["recorded_x"][:, 3])
    assert np.array_equal(recorded.extras["recorded_times"], times)
    assert np.array_equal(recorded.extras["recorded_x"][:, 0], recorded.extras["x0"])


def test_record_times_must_be_mesh_times():
    # each used to be rounded to the nearest step: at dt 0.1 these three
    # recorded x at t = 0, 0.1 and 0.2
    coarse = sde.SimParams(nu=0.5, dt=0.1, horizon=0.3, seed=73)
    for t in (0.04, 0.06, 0.25):
        with pytest.raises(ValueError, match=f"record time {t} is not a multiple of dt"):
            momentum.plan(OSC, coarse, 5, record_times=[0.0, t])
    # round() used to raise on these, for inf an OverflowError
    for t in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"record time {t} outside the simulated range"):
            momentum.plan(OSC, coarse, 5, record_times=[t])
    # within 1e-9 max(1, t) of a mesh time, as SimParams asks of the horizon
    fine = sde.SimParams(nu=0.5, dt=1e-3, horizon=1.0, seed=73)
    assert momentum.plan(OSC, fine, 5, record_times=[0.3]).record_indices == [300]
    request = verify._autocov_request(0.5, 1e-3, 5, 73)
    assert momentum.plan(**request).record_indices == [1000, 1500, 2000, 2500, 3000]


def test_free_scenario_coupling_is_identity():
    scenario = Scenario(kind="free-gaussian", nu=0.5)
    params = sde.SimParams(nu=0.5, dt=1e-3, horizon=1.0, seed=17)
    ensemble = momentum.collect(scenario, params, 6, record_times=[1.0])
    assert np.array_equal(ensemble.extras["recorded_x"][:, 0], ensemble.extras["xf_final"])


def test_target_density_is_nu_independent():
    d1 = Scenario(kind="oscillator-ground", nu=0.25).target_density()
    d2 = Scenario(kind="oscillator-ground", nu=1.0).target_density()
    assert np.array_equal(d1.density, d2.density)


def test_chunk_failures_carry_path_indices(monkeypatch):
    class Exploding:
        def __call__(self, rng):
            raise RuntimeError("sampler blew up")

    bad = dataclasses.replace(OSC)
    object.__setattr__(bad, "initial_sampler", lambda: Exploding())
    params = sde.SimParams(nu=0.5, dt=1e-3, horizon=1.0, seed=3)
    chunk_at_most(monkeypatch, 2)
    with pytest.raises(momentum.PathSimulationError) as err:
        momentum.collect(bad, params, 4)
    assert err.value.path_indices == (0, 1)
    assert "sampler blew up" in str(err.value)


def test_grid_custom_scenario_runs():
    scenario = Scenario(kind="grid-custom", nu=0.5, grid_extent=(-30.0, 30.0),
                        grid_points=1024)
    params = sde.SimParams(nu=0.5, dt=1e-3, horizon=0.5, seed=23)
    ensemble = momentum.collect(scenario, params, 3)
    assert len(ensemble) == 3
    assert np.all(np.isfinite(ensemble.values))


def test_narrow_grid_run_warns_once_per_process(monkeypatch):
    # on +-6 the ground state's edge amplitude, exp(-18) of its peak, is past
    # the boundary threshold from the first free slice on; every slice warns
    # with one message, so the default filter shows it once
    scenario = Scenario(kind="grid-custom", nu=0.5, grid_extent=(-6.0, 6.0),
                        grid_points=256)
    params = sde.SimParams(nu=0.5, dt=1e-3, horizon=0.1, seed=37)
    chunk_at_most(monkeypatch, 10)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        momentum.collect(scenario, params, 20, workers=1)
    assert [w.category for w in caught] == [GridTooNarrowWarning]


def test_default_grid_run_does_not_warn():
    # grid-run's horizon on the default grid stays clear of the edges
    scenario = Scenario(kind="grid-custom", nu=0.5)
    params = sde.SimParams(nu=0.5, dt=1e-3, horizon=0.25, seed=42)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ensemble = momentum.collect(scenario, params, 20)
    assert np.all(np.isfinite(ensemble.values))


def test_free_scenario_variance_tracks_quantum_spreading():
    # |psi_F(t)|^2 has variance (1 + tau^2)/2; the diffusion must track it
    scenario = Scenario(kind="free-gaussian", nu=0.5)
    horizon, m = 2.0, 2000
    params = sde.SimParams(nu=0.5, dt=1e-3, horizon=horizon, seed=31)
    ensemble = momentum.collect(scenario, params, m, record_times=[horizon])
    expected = 0.5 * (1.0 + horizon ** 2)
    sample_var = ensemble.extras["recorded_x"][:, 0].var(ddof=1)
    assert abs(sample_var - expected) < 4.0 * expected * np.sqrt(2.0 / m)


def test_grid_custom_collect_under_process_pool(monkeypatch, tmp_path):
    from stochmech import wavefunction as wf
    state_path = tmp_path / "state.tsv"
    wf.write_state(wf.to_grid(wf.harmonic_ground_state(), extent=(-30.0, 30.0),
                              points=512), state_path)
    scenario = Scenario(kind="grid-custom", nu=0.5, grid_extent=(-30.0, 30.0),
                        grid_points=512, state_file=str(state_path))
    params = sde.SimParams(nu=0.5, dt=1e-3, horizon=0.2, seed=41)
    chunk_at_most(monkeypatch, 2, pooled=2)
    serial = momentum.collect(scenario, params, 4)
    pooled = momentum.collect(scenario, params, 4, workers=2)
    assert np.array_equal(serial.values, pooled.values)


def test_collect_builds_the_drift_pair_once_per_process(monkeypatch):
    fields_built = []
    drifts_built = []
    drift_fields, drift = Scenario.drift_fields, wf.drift

    def counting_drift_fields(scenario):
        fields_built.append(scenario.nu)
        return drift_fields(scenario)

    def counting_drift(state, nu):
        drifts_built.append(nu)
        return drift(state, nu)

    monkeypatch.setattr(Scenario, "drift_fields", counting_drift_fields)
    monkeypatch.setattr(wf, "drift", counting_drift)
    scenario = Scenario(kind="grid-custom", nu=0.5, grid_extent=(-30.0, 30.0),
                        grid_points=1024)
    params = sde.SimParams(nu=0.5, dt=1e-3, horizon=0.2, seed=43)
    chunk_at_most(monkeypatch, 10)
    chunked = momentum.collect(scenario, params, 50, workers=1)
    # five chunks, one drift pair: the interacting field and one free slice
    # per step time, shared by every chunk
    assert fields_built == [0.5]
    assert len(drifts_built) == 1 + params.steps
    chunk_at_most(monkeypatch, 50)
    whole = momentum.collect(scenario, params, 50)
    assert np.array_equal(chunked.values.view(np.int64), whole.values.view(np.int64))
    # the memo does not outlive a collect: another nu gets its own fields
    chunk_at_most(monkeypatch, 10)
    other = dataclasses.replace(scenario, nu=0.25)
    momentum.collect(other, dataclasses.replace(params, nu=0.25), 50)
    assert fields_built == [0.5, 0.5, 0.25]
    assert momentum._setup.cache_info().currsize == 0


@pytest.mark.parametrize("kind", ["oscillator-ground", "free-gaussian", "grid-custom"])
def test_scenario_builds_its_fields_and_sampler_from_its_t0_state(kind):
    scenario = Scenario(kind=kind, nu=0.5, grid_points=256)
    interacting, free = scenario.drift_fields()
    sampler = scenario.initial_sampler()
    if kind == "grid-custom":
        assert isinstance(interacting.evaluator, wf.GridInterpEvaluator)
        assert isinstance(free.evaluator, wf.FreeGridDriftEvaluator)
        assert isinstance(sampler, GridInitialSampler)
    else:
        held = kind == "oscillator-ground"
        assert interacting.evaluator == wf.GaussianDrift(nu=0.5, spreading=not held)
        assert free.evaluator == wf.GaussianDrift(nu=0.5, spreading=True)
        assert sampler == GaussianInitialSampler(sigma=math.sqrt(0.5))


def test_grid_custom_drifts_match_analytic_oscillator():
    # the tabulated ground state must reproduce the analytic drift pair
    scenario = Scenario(kind="grid-custom", nu=0.5, grid_extent=(-30.0, 30.0),
                        grid_points=2048)
    grid_int, grid_free = scenario.drift_fields()
    ana_int, ana_free = OSC.drift_fields()
    x = np.linspace(-3.0, 3.0, 31)
    assert np.max(np.abs(grid_int(x, 0.0) - ana_int(x, 0.0))) < 1e-3
    for t in (0.0, 0.5, 1.0):
        assert np.max(np.abs(grid_free(x, t) - ana_free(x, t))) < 1e-3
    # identical base path: the co-integrated free paths stay close
    params = sde.SimParams(nu=0.5, dt=1e-3, horizon=1.0, seed=29)
    path = sde.integrate(ana_int, 0.4, params)
    pair_grid = sde.co_integrate((grid_int, grid_free), path)
    pair_ana = sde.co_integrate((ana_int, ana_free), path)
    assert np.max(np.abs(pair_grid.free_positions - pair_ana.free_positions)) < 5e-3


def test_long_run_chunks_reuse_the_first_512_free_slices(monkeypatch):
    # 600 steps in two chunks: the first chunk builds 600 slices and keeps the
    # first 512, the second builds only the 88 past them (a FIFO cache would
    # miss on all 600 again)
    slices = []
    drift = wf.drift

    def counting_drift(state, nu):
        slices.append(nu)
        return drift(state, nu)

    scenario = Scenario(kind="grid-custom", nu=0.5, grid_extent=(-30.0, 30.0),
                        grid_points=1024)
    params = sde.SimParams(nu=0.5, dt=1e-3, horizon=0.6, seed=47)
    chunk_at_most(monkeypatch, 20)
    whole = momentum.collect(scenario, params, 20)
    monkeypatch.setattr(wf, "drift", counting_drift)
    chunk_at_most(monkeypatch, 10)
    chunked = momentum.collect(scenario, params, 20, workers=1)
    # one interacting drift, then the free slices
    assert len(slices) == 1 + 600 + (600 - 512)
    assert np.array_equal(chunked.values.view(np.int64), whole.values.view(np.int64))
