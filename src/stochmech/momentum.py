"""Momentum extraction from coupled paths via the long-time limit.

The per-path momentum is the almost-sure limit x_F(t0 + T) / T of the free
comparison path.  At a finite horizon two policies are offered:

* ``ratio``: x_F(t0 + T) / T as is (bias O(1/T));
* ``extrapolated``: fit a + c / T_i through the ratio at checkpoints
  T/4, T/2, T and return a (a heuristic finite-horizon correction, not a
  theorem; both policies land within O(1/T) of each other).
"""

from __future__ import annotations

import functools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import sde
from .errors import StochmechError
from .scenarios import Scenario

RATIO_CHECKPOINTS = (1.0,)
EXTRAPOLATION_CHECKPOINTS = (0.25, 0.5, 1.0)
POLICIES = ("ratio", "extrapolated")

DEFAULT_CHUNK = 2048


@dataclass
class MomentumEnsemble:
    """Momentum samples with their provenance and engine diagnostics."""

    values: np.ndarray
    path_indices: np.ndarray
    horizon_used: float
    provenance: dict
    extras: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.values)


def _checkpoint_indices(steps: int, policy: str) -> np.ndarray:
    fractions = EXTRAPOLATION_CHECKPOINTS if policy == "extrapolated" else RATIO_CHECKPOINTS
    return np.array(sorted({max(1, round(f * steps)) for f in fractions}), dtype=int)


def _reduce_checkpoints(xf_cp: np.ndarray, cp_idx: np.ndarray, dt: float,
                        policy: str) -> np.ndarray:
    """Momentum values from free-path checkpoints (paths along the last axis)."""
    horizons = cp_idx * dt
    ratios = xf_cp / horizons[:, None]
    if policy == "ratio":
        return ratios[-1]
    u = 1.0 / horizons
    # least-squares fit of ratio = a + c u, vectorized across paths
    um = u.mean()
    du = u - um
    denom = float(np.sum(du * du))
    c = (du @ ratios) / denom
    a = ratios.mean(axis=0) - c * um
    return a


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
    ``collect`` call, so the chunks of a process share the free drift's
    slice cache.  ``collect`` clears it when it returns."""
    return (*scenario.drift_fields(), scenario.initial_sampler())


def _run_chunk(scenario: Scenario, params: sde.SimParams, indices: np.ndarray,
               record_indices: Sequence[int],
               time_weights: Optional[np.ndarray]) -> sde.EnsembleChunk:
    interacting, free, sampler = _setup(scenario)
    try:
        return sde.simulate_coupled_ensemble(
            interacting, free, sampler, params, indices,
            record_indices=record_indices, time_weights=time_weights)
    except Exception as err:
        raise PathSimulationError(indices, err) from err


def collect(scenario: Scenario, params: sde.SimParams, ensemble_size: int,
            policy: str = "ratio", workers: int = 1,
            chunk_size: int = DEFAULT_CHUNK,
            time_weights: Optional[np.ndarray] = None,
            record_times: Optional[Sequence[float]] = None) -> MomentumEnsemble:
    """Reduce ``ensemble_size`` independent coupled paths to momentum samples.

    Paths are simulated in chunks, optionally across a process pool; each path
    is a pure function of (seed, path index), so the result is identical for
    any worker count or chunk size.  ``time_weights`` adds a per-path running
    trapezoid accumulator of sum w(t) x(t) dt (extras["weighted_integrals"]);
    ``record_times`` stores interacting positions at those times
    (extras["recorded_x"], one row per path).
    """
    if ensemble_size < 1:
        raise ValueError("ensemble size must be >= 1")
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    record_indices = set()
    for t in record_times or ():
        k = round((t - params.t0) / params.dt)
        if not (0 <= k <= params.steps):
            raise ValueError(f"record time {t} outside the simulated range")
        record_indices.add(k)
    cp_idx = _checkpoint_indices(params.steps, policy)
    # the kernel keeps these rows of x and x_F: step 0, the policy's
    # checkpoints, the horizon and the record times
    rows = sorted({0, params.steps, *cp_idx.tolist(), *record_indices})
    row_of = {k: j for j, k in enumerate(rows)}

    indices = [np.arange(start, min(start + chunk_size, ensemble_size))
               for start in range(0, ensemble_size, chunk_size)]
    n = len(indices)
    columns = ([scenario] * n, [params] * n, indices, [rows] * n, [time_weights] * n)
    try:
        if workers > 1 and n > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                chunks = list(pool.map(_run_chunk, *columns))
        else:
            chunks = list(map(_run_chunk, *columns))
    finally:
        _setup.cache_clear()

    cp_rows = [row_of[k] for k in cp_idx.tolist()]
    values = np.concatenate([
        _reduce_checkpoints(ch.recorded_xf[cp_rows], cp_idx, params.dt, policy)
        for ch in chunks])
    path_indices = np.concatenate([ch.path_indices for ch in chunks])
    order = np.argsort(path_indices)
    values = values[order]
    path_indices = path_indices[order]
    x = np.concatenate([ch.recorded_x for ch in chunks], axis=1)[:, order]

    extras = {
        "x0": x[0],
        "x_final": x[-1],
        "xf_final": np.concatenate([ch.recorded_xf[-1] for ch in chunks])[order],
        "out_of_domain": (np.concatenate([ch.ood_interacting for ch in chunks])[order]
                          + np.concatenate([ch.ood_free for ch in chunks])[order]),
    }
    if time_weights is not None:
        extras["weighted_integrals"] = np.concatenate(
            [ch.weighted_integral for ch in chunks])[order]
    if record_indices:
        recorded = sorted(record_indices)
        extras["recorded_times"] = params.t0 + np.asarray(recorded) * params.dt
        extras["recorded_x"] = x[[row_of[k] for k in recorded]].T

    provenance = {
        "scenario": scenario.kind,
        "nu": params.nu,
        "dt": params.dt,
        "horizon": params.horizon,
        "t0": params.t0,
        "seed": params.seed,
        "ensemble_size": ensemble_size,
        "policy": policy,
        "finite_horizon_note": "momentum read off at finite horizon; "
                               "ratio bias is O(1/horizon)",
    }
    return MomentumEnsemble(values=values, path_indices=path_indices,
                            horizon_used=params.horizon, provenance=provenance,
                            extras=extras)
