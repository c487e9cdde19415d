"""Named simulation scenarios: state at t = 0, drift pair, and initial sampler.

A scenario is a small picklable value object so that worker processes can
rebuild drift evaluators locally; everything derived from it is a pure
function of its fields.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

from . import wavefunction as wf
from .errors import ConfigError

SCENARIO_KINDS = ("oscillator-ground", "free-gaussian", "grid-custom")
# Most grid points accepted: the momentum density's zero-padded FFT then
# holds 4 x 2**20 complex values, 64 MiB.
GRID_POINT_LIMIT = 1 << 20


@dataclass(frozen=True)
class GaussianInitialSampler:
    """Exact sampler for a centered Gaussian |psi0|^2 with the given sigma:
    one position per generator of ``rngs``, sigma times its one normal."""

    sigma: float

    def __call__(self, rngs: Iterable[np.random.Generator]) -> np.ndarray:
        return self.sigma * np.array([rng.standard_normal() for rng in rngs])


@dataclass(frozen=True)
class GridInitialSampler:
    """Inverse-CDF sampler on the tabulated |psi0|^2: one position per
    generator of ``rngs``, the CDF inverted at its one uniform."""

    x: np.ndarray
    cdf: np.ndarray

    def __call__(self, rngs: Iterable[np.random.Generator]) -> np.ndarray:
        return np.interp(np.array([rng.random() for rng in rngs]), self.cdf, self.x)


@functools.lru_cache(maxsize=1)
def _read_state(path: str, mtime_ns: int, size: int) -> wf.WaveState:
    """The state file at ``path``, read once per process while its
    modification time and size stay the same."""
    return wf.read_state(path)


@dataclass(frozen=True)
class Scenario:
    kind: str
    nu: float
    grid_extent: Tuple[float, float] = wf.DEFAULT_EXTENT
    grid_points: int = wf.DEFAULT_POINTS
    state_file: Optional[str] = None

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ConfigError(f"scenario: {self.kind!r} is not one of {SCENARIO_KINDS}")
        if self.state_file is not None and self.kind != "grid-custom":
            raise ConfigError(f"state_file: only grid-custom reads a state file, "
                              f"not {self.kind}")
        if not 0 < self.nu < math.inf:
            raise ConfigError("nu: must be positive and finite")
        if self.grid_points < 16:
            raise ConfigError("grid_points: must be >= 16")
        if self.grid_points > GRID_POINT_LIMIT:
            raise ConfigError(f"grid_points: must be <= {GRID_POINT_LIMIT}")
        if not self.grid_extent[0] < self.grid_extent[1]:
            raise ConfigError("grid_extent: lower bound must be below upper bound")

    def initial_state(self) -> wf.GaussianState | wf.WaveState:
        if self.kind == "oscillator-ground":
            return wf.harmonic_ground_state()
        if self.kind == "free-gaussian":
            return wf.free_gaussian_state()
        return self.grid_state()

    def grid_state(self) -> wf.WaveState:
        """The t = 0 state on its grid: a state file's own, or else the oscillator
        ground state, every kind's start, at ``grid_points`` over ``grid_extent``."""
        if self.state_file is not None:
            stat = os.stat(self.state_file)
            return _read_state(self.state_file, stat.st_mtime_ns, stat.st_size)
        return wf.to_grid(wf.harmonic_ground_state(), self.grid_extent, self.grid_points)

    def drift_fields(self) -> Tuple[wf.DriftField, wf.DriftField]:
        """(interacting, free) drift pair of the initial state; equal for free-gaussian."""
        state = self.initial_state()
        return wf.drift(state, self.nu), wf.free_drift(state, self.nu)

    def initial_sampler(self):
        state = self.initial_state()
        if isinstance(state, wf.GaussianState):
            return GaussianInitialSampler(sigma=math.sqrt(0.5))
        prob = np.abs(state.amplitude) ** 2
        h = state.spacing
        cdf = np.concatenate(([0.0], np.cumsum(0.5 * (prob[1:] + prob[:-1]) * h)))
        cdf /= cdf[-1]
        return GridInitialSampler(x=state.grid, cdf=cdf)

    def target_density(self) -> wf.MomentumDensity:
        """Quantum momentum density of the initial state (the distribution the
        extracted momentum samples must reproduce; contains no nu)."""
        return wf.momentum_density(self.grid_state())
