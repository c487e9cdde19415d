"""Momentum extraction from coupled paths via the long-time limit.

The per-path momentum is the almost-sure limit x_F(T) / T of the free
comparison path started at t = 0.  At a finite horizon it is read off as that
ratio, with T = steps * dt, at a bias of O(1/T).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import sde
from .errors import StochmechError
from .scenarios import Scenario

DEFAULT_CHUNK = 2048
# Largest chunk of a pooled ensemble; bounds a worker's (BLOCK x chunk) noise
# buffer, 16 MiB at 8,192 paths.
MAX_CHUNK = 4 * DEFAULT_CHUNK


@dataclass
class MomentumEnsemble:
    """Momentum samples with their provenance and engine diagnostics."""

    values: np.ndarray
    path_indices: np.ndarray
    provenance: dict
    extras: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.values)


class PathSimulationError(StochmechError):
    """A path chunk failed; carries the covered path indices."""

    def __init__(self, path_indices, cause):
        first, last = int(path_indices[0]), int(path_indices[-1])
        super().__init__(f"simulation failed in paths {first}..{last}: {cause}")
        self.path_indices = (first, last)
        self.cause = str(cause)

    def __reduce__(self):
        # rebuilt from picklable fields when a pool worker raises it
        return type(self), (self.path_indices, self.cause)


@functools.lru_cache(maxsize=1)
def _setup(scenario: Scenario):
    """(interacting, free, sampler) of a scenario, built once per process and
    ``run_jobs`` call, so the chunks of a process share the free drift's
    slice cache.  ``run_jobs`` clears it when it returns."""
    return (*scenario.drift_fields(), scenario.initial_sampler())


def _run_chunk(scenario: Scenario, params: sde.SimParams, indices: np.ndarray,
               record_indices: Sequence[int], time_weights: Optional[np.ndarray],
               walk_x: bool) -> sde.EnsembleChunk:
    interacting, free, sampler = _setup(scenario)
    try:
        return sde.simulate_coupled_ensemble(
            interacting if walk_x else None, free, sampler, params, indices,
            record_indices=record_indices, time_weights=time_weights)
    except Exception as err:
        raise PathSimulationError(indices, err) from err


def run_jobs(jobs: Sequence[Callable], workers: int = 1) -> list:
    """The results of the picklable zero-argument callables ``jobs``, in order.

    With ``workers > 1`` and more than one job they run on a process pool of
    ``workers`` processes, never more than there are jobs; otherwise in this
    process.  The first job to raise has its error raised here, and the jobs
    still queued behind it are cancelled.
    """
    try:
        if workers > 1 and len(jobs) > 1:
            # imported here, so that in-process runs never load multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
                futures = [pool.submit(job) for job in jobs]
                try:
                    return [future.result() for future in futures]
                except BaseException:
                    pool.shutdown(wait=False, cancel_futures=True)
                    raise
        return [job() for job in jobs]
    finally:
        _setup.cache_clear()


@dataclass(frozen=True)
class EnsemblePlan:
    """The chunk jobs of one ensemble, and what reducing their results needs.

    ``jobs`` are contiguous chunks of paths 0..M-1 in order; ``rows`` are the
    step indices the kernel keeps x_F at, and x too when the plan steps it.
    """

    jobs: list
    params: sde.SimParams
    rows: list
    record_indices: list
    weighted: bool
    provenance: dict

    def reduce(self, chunks: Sequence[sde.EnsembleChunk]) -> MomentumEnsemble:
        """The ensemble from the results of ``jobs``, in job order; each
        path's momentum is its x_F at the last row over ``params.span``.
        Out-of-domain counts are kept per path for each side stepped
        (``out_of_domain_<side>``) and summed (``out_of_domain``)."""
        xf = np.concatenate([ch.recorded_xf for ch in chunks], axis=1)
        ood = {"free": np.concatenate([ch.ood_free for ch in chunks])}
        if chunks[0].ood_interacting is not None:
            ood["interacting"] = np.concatenate([ch.ood_interacting for ch in chunks])
        extras = {"x0": xf[0], "xf_final": xf[-1], "out_of_domain": sum(ood.values()),
                  **{f"out_of_domain_{side}": counts for side, counts in ood.items()}}
        if self.weighted:
            extras["weighted_integrals"] = np.concatenate(
                [ch.weighted_integral for ch in chunks])
        if self.record_indices:
            row_of = {k: j for j, k in enumerate(self.rows)}
            x = np.concatenate([ch.recorded_x for ch in chunks], axis=1)
            extras["recorded_times"] = np.asarray(self.record_indices) * self.params.dt
            extras["recorded_x"] = x[[row_of[k] for k in self.record_indices]].T
        return MomentumEnsemble(
            values=xf[-1] / self.params.span,
            path_indices=np.concatenate([ch.path_indices for ch in chunks]),
            provenance=self.provenance, extras=extras)


def chunk_indices(ensemble_size: int, workers: int = 1) -> list:
    """Contiguous path-index arrays that cover 0..ensemble_size-1 in order.

    The chunks go to p = min(workers, ceil(M / DEFAULT_CHUNK)) processes
    (this one alone when p = 1).  The paths are split into
    p * ceil(M / (p * cap)) equal shares, sizes differing by at most one, so
    every process gets the same number of paths and no chunk exceeds cap:
    MAX_CHUNK on a pool, ``DEFAULT_CHUNK`` in process, which bounds the
    kernel's memory.
    """
    pool = min(workers, -(-ensemble_size // DEFAULT_CHUNK))
    cap = MAX_CHUNK if pool > 1 else DEFAULT_CHUNK
    return np.array_split(np.arange(ensemble_size),
                          pool * -(-ensemble_size // (pool * cap)))


def plan(scenario: Scenario, params: sde.SimParams, ensemble_size: int,
         time_weights: Optional[np.ndarray] = None,
         record_times: Optional[Sequence[float]] = None,
         workers: int = 1) -> EnsemblePlan:
    """The chunk jobs of ``collect`` for these arguments, not yet run; the
    chunks are ``chunk_indices(ensemble_size, workers)``.  ValueError when
    ``params`` and ``scenario`` disagree on nu."""
    if ensemble_size < 1:
        raise ValueError("ensemble size must be >= 1")
    if params.nu != scenario.nu:
        raise ValueError(f"params.nu = {params.nu!r} differs from "
                         f"scenario.nu = {scenario.nu!r}")
    record_indices = set()
    for t in record_times or ():
        k = round(t / params.dt) if math.isfinite(t) else -1
        if not (0 <= k <= params.steps):
            raise ValueError(f"record time {t} outside the simulated range")
        # the rule SimParams applies to horizon and dt
        if abs(k * params.dt - t) > 1e-9 * max(1.0, t):
            raise ValueError(f"record time {t} is not a multiple of dt = {params.dt}")
        record_indices.add(k)
    # the kernel keeps these rows: step 0, the horizon and the record times
    rows = sorted({0, params.steps, *record_indices})
    # P reads x_F alone; only the weighted integral and the records read x
    walk_x = time_weights is not None or bool(record_indices)
    jobs = [functools.partial(_run_chunk, scenario, params, indices, rows, time_weights,
                              walk_x)
            for indices in chunk_indices(ensemble_size, workers)]
    provenance = {
        "scenario": scenario.kind,
        "nu": params.nu,
        "dt": params.dt,
        "horizon": params.horizon,
        "seed": params.seed,
        "ensemble_size": ensemble_size,
        "finite_horizon_note": "momentum read off at finite horizon as "
                               "x_F(T) / T; bias is O(1/horizon)",
    }
    return EnsemblePlan(jobs=jobs, params=params, rows=rows,
                        record_indices=sorted(record_indices),
                        weighted=time_weights is not None, provenance=provenance)


def collect(scenario: Scenario, params: sde.SimParams, ensemble_size: int,
            workers: int = 1,
            time_weights: Optional[np.ndarray] = None,
            record_times: Optional[Sequence[float]] = None) -> MomentumEnsemble:
    """Reduce ``ensemble_size`` independent coupled paths to momentum samples.

    Paths are simulated in chunks, optionally across a process pool of
    ``workers`` processes; the chunking follows from ``workers`` (see
    ``chunk_indices``).  Each path is a pure function of (seed, path index),
    so the result is identical for any worker count or chunking.
    The interacting path x is stepped only when one of two arguments reads
    it: ``time_weights`` adds a per-path running trapezoid accumulator of
    sum w(t) x(t) dt (extras["weighted_integrals"]); ``record_times``, each
    a multiple of dt, stores x at those times (extras["recorded_x"], one
    row per path).  This is ``plan``, ``run_jobs`` and
    ``EnsemblePlan.reduce`` for one ensemble.
    """
    ensemble = plan(scenario, params, ensemble_size, time_weights, record_times, workers)
    return ensemble.reduce(run_jobs(ensemble.jobs, workers))
