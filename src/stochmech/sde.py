"""Coupled diffusion integration on a shared Wiener process.

The interacting position diffuses as dx = b(x, t) dt + dW with
E(dW^2) = 2 nu dt; the free comparison process uses the same increments:
dx_F = b_F(x_F, t) dt + dW.  Driving both discrete recursions with literally
the same stored increment array makes the shared-noise identity exact in
floating point, which is what the coupling tests rely on.

Randomness is stream split: path ``i`` of master seed ``s`` draws its
increments from the PCG64 stream keyed by ``SeedSequence(s, spawn_key=(i, 0))``
and its initial position from ``spawn_key=(i, 1)``, so every path is a pure
function of (seed, path index) regardless of batching or worker schedule.
:func:`path_rngs` seeds all the streams of a chunk in one vectorised pass
of numpy's SeedSequence hash; the tests check its words and draws against
``np.random.SeedSequence`` itself, so the streams are exactly those above.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import NoConvergence
from .wavefunction import DriftField

STREAM_NOISE = 0
STREAM_INITIAL = 1

PICARD_TOL = 1e-10
PICARD_MAX_ITER = 200

# Steps of noise drawn per path at once by ``_noise_blocks``, for the
# ensemble kernel, the closed-form check of ``verify`` and the path dump.  Its
# (BLOCK x paths) buffer sets much of their peak memory: 9.8 MiB for a
# 5,000-path chunk.  The value changes no output, since each path's stream is
# sequential; a shorter block costs one more generator fill per path per
# block.  It is even, so no pair of steps that the closed-form check coarsens
# straddles two blocks, and at least 250, so a 250-step walk is one block and
# keeps no generators.
BLOCK = 256
# Paths whose noise rows are drawn into a small (TILE x BLOCK) tile, 256 KiB,
# which is then scaled and transposed into the noise buffer in one pass.
TILE = 128


@dataclass(frozen=True)
class SimParams:
    """Integration parameters; ``horizon`` must be an exact multiple of ``dt``."""

    nu: float
    dt: float
    horizon: float
    seed: int = 0
    path_index: int = 0

    def __post_init__(self):
        for name in ("nu", "dt", "horizon"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name}: must be positive and finite")
        if not self.horizon / self.dt <= np.iinfo(np.intp).max:
            raise ValueError(f"horizon/dt: horizon / dt must be at most "
                             f"{np.iinfo(np.intp).max} steps, the most numpy can index")
        steps = round(self.horizon / self.dt)
        if steps < 1 or abs(steps * self.dt - self.horizon) > 1e-9 * max(1.0, self.horizon):
            raise ValueError("horizon/dt: horizon must be an exact multiple of dt")
        if self.seed < 0:
            raise ValueError("seed: must be non-negative")

    @property
    def steps(self) -> int:
        return round(self.horizon / self.dt)

    @property
    def span(self) -> float:
        """steps * dt, the time the mesh spans and momentum is divided by;
        it can differ from ``horizon`` in the last bit."""
        return self.steps * self.dt

    @property
    def noise_scale(self) -> float:
        """Standard deviation of one Wiener increment, sqrt(2 nu dt)."""
        return np.sqrt(2.0 * self.nu * self.dt)

    def times(self, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
        """Mesh times k dt of rows k = start..stop - 1; by default all
        steps + 1 rows.  A slice of the whole mesh equals the same rows built
        alone, bit for bit."""
        stop = self.steps + 1 if stop is None else stop
        return np.arange(start, stop) * self.dt

    def with_path_index(self, path_index: int) -> "SimParams":
        return SimParams(nu=self.nu, dt=self.dt, horizon=self.horizon,
                         seed=self.seed, path_index=path_index)


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): a pool of
# four uint32 words, the entropy hash and the output hash.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value, const: int, mult: int = _MULT_A):
    """SeedSequence's hashmix of a uint32 word (an int or a uint32 array);
    returns the hashed word and the next hash constant."""
    nxt = const * mult & _MASK32
    value = (value ^ const) * nxt & _MASK32
    return value ^ value >> 16, nxt


def _mix(x, y):
    value = (_MIX_L * x - _MIX_R * y) & _MASK32
    return value ^ value >> 16


def _absorb(pool: list, word, const: int):
    """Mix one more entropy word into every pool word."""
    out = []
    for p in pool:
        hashed, const = _hashmix(word, const)
        out.append(_mix(p, hashed))
    return out, const


def _pcg64_seeds(seed: int, path_indices, stream: int) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(i, stream)).generate_state(4, np.uint64)``
    for every ``i`` of ``path_indices``, as an (n, 4) uint64 array.

    The entropy is the seed's 32-bit words, zero-padded to the pool size,
    then the spawn key's words: i's low word, its high word when i >= 2**32,
    and the stream.  The seed part of the pool, and every hash constant,
    are the same for all paths, so only the spawn words are mixed per path.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("seed must be non-negative")
    idx = np.asarray(path_indices, dtype=np.int64).reshape(-1)
    if np.any(idx < 0):
        raise ValueError("path indices must be non-negative")
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL_SIZE - len(words))
    const = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        hashed, const = _hashmix(word, const)
        pool.append(hashed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], hashed)
    for word in words[_POOL_SIZE:]:
        pool, const = _absorb(pool, word, const)

    low = (idx & _MASK32).astype(np.uint32)
    high = (idx >> 32).astype(np.uint32)
    wide = high != 0
    pool = [np.full(len(idx), p, dtype=np.uint32) for p in pool]
    pool, const = _absorb(pool, low, const)
    pool, const = _absorb(pool, np.where(wide, high, np.uint32(stream)), const)
    if wide.any():
        last, _ = _absorb(pool, np.full(len(idx), stream, dtype=np.uint32), const)
        pool = [np.where(wide, a, b) for a, b in zip(last, pool)]

    const = _INIT_B
    state = []
    for k in range(8):                  # the 4 uint64 words as 8 uint32 halves
        hashed, const = _hashmix(pool[k % _POOL_SIZE], const, _MULT_B)
        state.append(hashed.astype(np.uint64))
    return np.stack([state[2 * j] | state[2 * j + 1] << np.uint64(32) for j in range(4)],
                    axis=1)


class _SeedWords(ISeedSequence):
    """A precomputed SeedSequence state, handed to ``PCG64`` so that numpy's
    own seeding routine turns it into the generator state."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words               # PCG64 asks for (4, np.uint64) only


def path_rngs(seed: int, path_indices, stream: int = STREAM_NOISE):
    """Generators of the (seed, i, stream) streams for every path index
    ``i``, in order, made one at a time as the iterator is advanced; each
    is the one ``SeedSequence(seed, spawn_key=(i, stream))`` seeds."""
    words = _pcg64_seeds(seed, path_indices, stream)
    return (np.random.Generator(np.random.PCG64(_SeedWords(row))) for row in words)


def path_rng(seed: int, path_index: int, stream: int = STREAM_NOISE) -> np.random.Generator:
    """Independent generator for one (seed, path, stream) triple."""
    return next(path_rngs(seed, [path_index], stream))


def _noise_blocks(params: SimParams, path_indices):
    """Yields (k, dw) for k = 0, BLOCK, 2 BLOCK, ... < steps: the scaled
    Wiener increments of steps k..k + m - 1, one column per path of
    ``path_indices``, each drawn from its own stream.  Paths are drawn in
    tiles of TILE rows, then scaled and transposed into one (BLOCK x paths)
    buffer that every block reuses, so a block is only valid until the next
    is drawn.  The first block seeds each tile's generators as it draws it
    and keeps them only when another block follows, so a walk of at most
    BLOCK steps holds no more than TILE generators at once."""
    fresh = path_rngs(params.seed, path_indices, STREAM_NOISE)
    n, steps, scale = len(path_indices), params.steps, params.noise_scale
    buf = np.empty((min(BLOCK, steps), n))
    tile = np.empty((min(TILE, n), len(buf)))
    kept = []
    for k in range(0, steps, BLOCK):
        m = min(BLOCK, steps - k)
        for s in range(0, n, TILE):
            r = min(TILE, n - s)
            rngs = kept[s:s + r] if k else list(itertools.islice(fresh, r))
            for row, rng in zip(tile[:r, :m], rngs):
                rng.standard_normal(out=row)
            if k == 0 and steps > BLOCK:
                kept += rngs
            np.multiply(tile[:r, :m].T, scale, out=buf[:m, s:s + r])
        yield k, buf[:m]


def wiener_increments(params: SimParams) -> np.ndarray:
    """The path's Wiener increments: i.i.d. N(0, 2 nu dt), reproducible."""
    rng = path_rng(params.seed, params.path_index, STREAM_NOISE)
    return params.noise_scale * rng.standard_normal(params.steps)


def initial_positions(seed: int, path_indices, sampler: Callable) -> np.ndarray:
    """Initial positions of the paths ``path_indices``: ``sampler`` (the
    scenario's density at t = 0) takes the paths' (seed, i, STREAM_INITIAL)
    generators, in order, and draws path i's position from its own."""
    return sampler(path_rngs(seed, path_indices, STREAM_INITIAL))


def draw_initial(params: SimParams, sampler: Callable) -> float:
    """Initial position of the path ``params.path_index``."""
    return float(initial_positions(params.seed, [params.path_index], sampler)[0])


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SamplePath:
    """One realization on a uniform mesh, with its increments retained.

    positions[k+1] == positions[k] + b(positions[k], times[k]) * dt
                      + increments[k]  holds bit for bit as stored.
    """

    times: np.ndarray
    positions: np.ndarray
    increments: np.ndarray
    params: SimParams
    ood_count: int = 0


@dataclass(frozen=True)
class CoupledPair:
    """Interacting path plus the free path driven by the same increments."""

    base: SamplePath
    free_positions: np.ndarray
    ood_count_free: int = 0


def _euler(drift: DriftField, x, times, dt: float, dw, ood):
    """The one Euler-Maruyama recursion x <- x + b(x, t_k) dt + dw[k].

    Yields each new position, for a scalar or a per-path array ``x``; stops
    at the shorter of ``times`` and ``dw``.  Positions outside a grid-backed
    drift's tabulated domain are added into ``ood`` in place, not fatal (the
    evaluator extrapolates linearly).
    """
    ev = drift.evaluator
    domain = drift.domain
    for t, row in zip(times, dw):
        if domain is not None:
            ood += (x < domain[0]) | (x > domain[1])
        x = x + ev(x, t) * dt + row
        yield x


def _path(drift: DriftField, x0, times, dt: float, dw: np.ndarray):
    """All len(dw) + 1 rows of one Euler run from ``x0``, with its
    out-of-domain count (per path when ``dw`` has one column per path)."""
    out = np.empty((len(dw) + 1,) + dw.shape[1:])
    out[0] = x0
    ood = np.zeros(dw.shape[1:], dtype=int)
    for k, x in enumerate(_euler(drift, out[0], times, dt, dw, ood), start=1):
        out[k] = x
    return out, ood


def integrate(drift: DriftField, x0: float, params: SimParams,
              increments: Optional[np.ndarray] = None) -> SamplePath:
    """Euler-Maruyama integration of dx = b dt + dW for a single path."""
    dw = wiener_increments(params) if increments is None else np.asarray(increments)
    if len(dw) != params.steps:
        raise ValueError("increments length does not match params.steps")
    times = params.times()
    x, ood = _path(drift, x0, times, params.dt, dw)
    return SamplePath(times=times, positions=x, increments=dw, params=params,
                      ood_count=int(ood))


def co_integrate(pair_drifts: Tuple[DriftField, DriftField], base: SamplePath) -> CoupledPair:
    """Advance the free process on the base path's increments.

    x_F[k+1] = x_F[k] + b_F(x_F[k], t_k) dt + dW[k] with the stored dW; since
    dW[k] equals x[k+1] - x[k] - b(x[k], t_k) dt exactly as stored, this is the
    discrete shared-noise relation with the interacting drift eliminated, and
    with identical drifts it reproduces the base path bit for bit.  The
    interacting field is accepted for interface symmetry.
    """
    xf, ood = _path(pair_drifts[1], base.positions[0], base.times, base.params.dt,
                    base.increments)
    return CoupledPair(base=base, free_positions=xf, ood_count_free=int(ood))


def picard_solve(pair_drifts: Tuple[DriftField, DriftField], x: np.ndarray,
                 times: np.ndarray, dt: float,
                 tol: float = PICARD_TOL, max_iter: int = PICARD_MAX_ITER):
    """Fixed-point construction of the free path of the interacting path
    ``x`` on the mesh ``times`` of step ``dt`` from the integral relation

        x_F(t) = x(t) + int_0^t [b_F(x_F, s) - b(x, s)] ds

    iterated from x_F = x, with the integral discretized on the path mesh by
    the left-endpoint rule.  That rule has the co-integration recursion as
    its exact fixed point, so both solvers agree to solver tolerance.  Both
    drifts are evaluated along the whole path at once, so they must accept
    an array of times, one per position.

    Returns (x_F, iterations, residual_history).  Raises NoConvergence if
    the sup-norm update never drops below ``tol``.
    """
    interacting, free = pair_drifts
    b_base = interacting(x, times)
    integral = np.zeros_like(x)
    y = x.copy()
    history = []
    for iteration in range(1, max_iter + 1):
        g = free(y, times) - b_base
        np.cumsum(g[:-1] * dt, out=integral[1:])
        y_new = x + integral
        residual = float(np.max(np.abs(y_new - y)))
        history.append(residual)
        y = y_new
        if residual < tol:
            return y, iteration, history
    raise NoConvergence(max_iter, history[-1] if history else float("nan"))


def integrate_batch(drift: DriftField, x0: np.ndarray, params: SimParams,
                    increments: np.ndarray, start: int = 0) -> np.ndarray:
    """Euler-Maruyama for many paths at once on caller-supplied increments.

    Steps the positions ``x0`` (one per path) at row ``start`` of the mesh
    ``params.times()`` through the (m, n) ``increments`` and returns the
    (m + 1, n) positions of rows start..start + m; ValueError when those
    rows overrun the mesh.  Every call reads its times from that one mesh, so
    a mesh stepped in several calls, each from the last row of the one before,
    equals one call bit for bit.  Columns are bit-identical to single-path
    :func:`integrate` runs on the same increment columns.
    """
    return _batch(drift, x0, params, increments, start)


def co_integrate_batch(free: DriftField, xf0: np.ndarray, params: SimParams,
                       increments: np.ndarray, start: int = 0) -> np.ndarray:
    """Free-side co-integration for a batch of paths: :func:`integrate_batch`
    of the free drift from ``xf0`` on the base paths' increments (shared
    noise).  x_F starts where x does, so from step 0 ``xf0`` is ``x0``."""
    return _batch(free, xf0, params, increments, start)


def _batch(drift: DriftField, x0, params: SimParams, dw: np.ndarray, start: int):
    # the two public names are counted apart by wrappers installed on the
    # module, so neither calls the other
    if not 0 <= start <= params.steps - len(dw):
        raise ValueError(f"{len(dw)} increments from step {start} overrun "
                         f"the mesh's {params.steps} steps")
    return _path(drift, x0, params.times(start, start + len(dw)), params.dt, dw)[0]


# ---------------------------------------------------------------------------
# Batched ensemble kernel
# ---------------------------------------------------------------------------

@dataclass
class EnsembleChunk:
    """Per-path outputs of one batched run (paths along the last axis)."""

    path_indices: np.ndarray
    recorded_x: Optional[np.ndarray]     # (len(record_indices), n_paths)
    recorded_xf: np.ndarray
    weighted_integral: Optional[np.ndarray]
    ood_interacting: Optional[np.ndarray]
    ood_free: np.ndarray


def simulate_coupled_ensemble(
    interacting: Optional[DriftField],
    free: DriftField,
    sampler: Callable,
    params: SimParams,
    path_indices: Sequence[int],
    record_indices: Sequence[int] = (),
    time_weights: Optional[np.ndarray] = None,
) -> EnsembleChunk:
    """Simulate coupled pairs for many paths at once.

    Per-path streams make the result independent of batching; elementwise
    updates make each column bit-identical to the single-path integrators.
    x and x_F are kept at the step indices ``record_indices`` (strictly
    increasing, within 0..steps) and nowhere else.  ``time_weights`` (length
    steps+1) switches on a running trapezoid accumulator of sum w(t) x(t) dt
    along the interacting path.  Noise comes from ``_noise_blocks``, in
    blocks of ``BLOCK`` steps per path.

    With ``interacting`` None only x_F is stepped, bit for bit as in the
    coupled run: ``recorded_x`` and ``ood_interacting`` are None, and
    ``time_weights``, which integrates x, is refused.
    """
    idx = np.asarray(list(path_indices), dtype=int)
    n = len(idx)
    steps = params.steps
    dt = params.dt

    rec = np.asarray(record_indices, dtype=int)
    outside = rec[(rec < 0) | (rec > steps)]
    if len(outside):
        raise ValueError(f"record index {outside[0]} outside the simulated range 0..{steps}")
    if np.any(rec[1:] <= rec[:-1]):
        raise ValueError("record indices must be strictly increasing")

    walk_x = interacting is not None
    if time_weights is not None and not walk_x:
        raise ValueError("time_weights: the weighted integral is along x, "
                         "which is stepped only with an interacting drift")

    x0 = initial_positions(params.seed, idx, sampler)

    x = xf = x0
    rec_x = np.empty((len(rec), n)) if walk_x else None
    rec_xf = np.empty((len(rec), n))
    # a cursor over the rows still to take: row j at step target (-1: none)
    takes = enumerate(map(int, rec))
    j, target = next(takes, (0, -1))
    if target == 0:
        rec_xf[0] = x0
        if walk_x:
            rec_x[0] = x0
        j, target = next(takes, (0, -1))
    ood_i = np.zeros(n, dtype=int) if walk_x else None
    ood_f = np.zeros(n, dtype=int)

    weights = None
    acc = None
    if time_weights is not None:
        weights = np.asarray(time_weights, dtype=float)
        if len(weights) != steps + 1:
            raise ValueError("time_weights must have length steps + 1")
        acc = np.zeros(n)
        f_prev = weights[0] * x

    for k, dw in _noise_blocks(params, idx):
        times = params.times(k, k + len(dw))
        xs = (_euler(interacting, x, times, dt, dw, ood_i) if walk_x
              else itertools.repeat(None))
        for knext, x, xf in zip(range(k + 1, k + len(dw) + 1), xs,
                                _euler(free, xf, times, dt, dw, ood_f)):
            if weights is not None:
                f_new = weights[knext] * x
                acc += 0.5 * dt * (f_prev + f_new)
                f_prev = f_new
            if knext == target:
                if walk_x:
                    rec_x[j] = x
                rec_xf[j] = xf
                j, target = next(takes, (0, -1))

    return EnsembleChunk(
        path_indices=idx, recorded_x=rec_x, recorded_xf=rec_xf,
        weighted_integral=acc, ood_interacting=ood_i, ood_free=ood_f,
    )
