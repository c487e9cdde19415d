"""Wave functions, their log-amplitude/phase split, drift fields, and momentum density.

Natural units throughout (hbar = m = 1).  A wave function psi = exp(R + i S)
is either a :class:`GaussianState`, with R and S in closed form, or a
:class:`WaveState` sampled on a uniform grid.  The drift guiding the position
diffusion is

    b(x, t) = 2 nu dR/dx + dS/dx

with nu the diffusion parameter.  The Gaussian state is the
harmonic-oscillator ground state, held (stationary) or spreading under the
free equation from the same initial profile.  A grid state evolves freely by
one spectral step, :meth:`FreeGridDriftEvaluator.state`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import GridTooNarrowWarning, NodeEncountered
from . import tableio

NODE_THRESHOLD = 1e-12          # on |psi| relative to max |psi|
BOUNDARY_AMPLITUDE = 1e-8       # relative edge amplitude that triggers a warning
DEFAULT_EXTENT = (-20.0, 20.0)
DEFAULT_POINTS = 4096


# ---------------------------------------------------------------------------
# Wave states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianState:
    """The unit-norm Gaussian psi = exp(R + i S) that is the ground state of
    V = x^2/2 at t = 0.

    Held (``spreading`` false) it stays that ground state, with tau = 0
    below.  Spreading, it solves the free equation from it, with tau = t:

        R = -x^2 / (2 (1 + tau^2)) - log(pi)/4 - log(1 + tau^2)/4,
        S = x^2 tau / (2 (1 + tau^2)) - atan(tau)/2.
    """

    spreading: bool = False

    def _tau(self, t):
        return t if self.spreading else 0.0

    def log_amp(self, x, t):
        x = np.asarray(x, dtype=float)
        tau = self._tau(t)
        return (-0.5 * x * x / (1.0 + tau * tau)
                - 0.25 * math.log(math.pi) - 0.25 * math.log1p(tau * tau))

    def phase(self, x, t):
        x = np.asarray(x, dtype=float)
        tau = self._tau(t)
        return 0.5 * x * x * tau / (1.0 + tau * tau) - 0.5 * math.atan(tau)

    def psi(self, x, t):
        """The amplitude at positions x and time t."""
        return np.exp(self.log_amp(x, t) + 1j * self.phase(x, t))


@dataclass(frozen=True)
class WaveState:
    """A wave function as complex ``amplitude`` values on the uniform ``grid``."""

    grid: np.ndarray
    amplitude: np.ndarray

    @classmethod
    def from_grid(cls, x, amplitude):
        """A grid state scaled to h * sum |psi|^2 = 1; ValueError unless
        ``x`` is a finite, increasing, uniform grid of at least 4 points and
        ``amplitude`` is finite and not all zero."""
        x = np.asarray(x, dtype=float)
        amplitude = np.asarray(amplitude, dtype=complex)
        if x.ndim != 1 or x.shape != amplitude.shape:
            raise ValueError("grid and amplitude must be matching 1-d arrays")
        if len(x) < 4:
            raise ValueError("grid too short")
        if not (np.isfinite(x).all() and np.isfinite(amplitude).all()):
            raise ValueError("grid and amplitude must be finite")
        h = x[1] - x[0]
        if not (h > 0 and np.allclose(np.diff(x), h, rtol=1e-9, atol=1e-12)):
            raise ValueError("grid spacing must be uniform and positive")
        norm = math.sqrt(h * float(np.sum(np.abs(amplitude) ** 2)))
        if norm == 0.0:
            raise ValueError("cannot normalize a zero amplitude")
        return cls(grid=x, amplitude=amplitude / norm)

    @property
    def spacing(self) -> float:
        return float(self.grid[1] - self.grid[0])


def harmonic_ground_state() -> GaussianState:
    """Ground state of V = x^2/2 at t = 0; drift is -2 nu x, independent of time."""
    return GaussianState()


def free_gaussian_state() -> GaussianState:
    """Freely spreading Gaussian whose profile at t = 0 matches the
    oscillator ground state."""
    return GaussianState(spreading=True)


def to_grid(state: GaussianState, extent=DEFAULT_EXTENT,
            points=DEFAULT_POINTS) -> WaveState:
    """A Gaussian state at t = 0 sampled onto a uniform grid (unit norm)."""
    x = np.linspace(extent[0], extent[1], points)
    return WaveState.from_grid(x, state.psi(x, 0.0))


# ---------------------------------------------------------------------------
# Drift fields
# ---------------------------------------------------------------------------

def _support_bounds(mags: np.ndarray) -> Tuple[int, int]:
    """Contiguous index range where |psi| (``mags``) exceeds the node threshold.

    Raises NodeEncountered when a sub-threshold point lies strictly inside
    the super-threshold range; amplitude tails outside it are not nodes.
    """
    mask = mags > NODE_THRESHOLD * float(mags.max())
    idx = np.nonzero(mask)[0]
    lo, hi = int(idx[0]), int(idx[-1])
    if not mask[lo:hi + 1].all():
        raise NodeEncountered("amplitude node inside the evaluation region")
    return lo, hi


def _unwrap_from(angles: np.ndarray, center: int) -> np.ndarray:
    """Cumulative phase unwrap outward from ``center``; adjacent differences
    are folded into (-pi, pi]."""
    d = np.diff(angles)
    w = np.mod(d, 2.0 * np.pi)
    w[w > np.pi] -= 2.0 * np.pi
    out = np.empty_like(angles)
    out[center] = angles[center]
    if center < len(angles) - 1:
        out[center + 1:] = angles[center] + np.cumsum(w[center:])
    if center > 0:
        back = np.cumsum(w[:center][::-1])[::-1]
        out[:center] = angles[center] - back
    return out


@dataclass(frozen=True)
class GaussianDrift:
    """Drift of a :class:`GaussianState`: -2 nu x held; spreading,
    -x (2 nu - t) / (1 + t^2), where t may be an array."""

    nu: float
    spreading: bool

    def __call__(self, x, t):
        x = np.asarray(x, dtype=float)
        # x * (-2 nu) is 2 nu * -x bit for bit (rounding is sign-symmetric),
        # one array pass shorter
        if not self.spreading:
            return x * (-2.0 * self.nu)
        c = 1.0 + t * t
        return (x / c) * (-2.0 * self.nu) + x * (t / c)


@dataclass(frozen=True)
class GridInterpEvaluator:
    """Linear interpolation of tabulated drift values, extrapolating linearly
    from the outermost two nodes beyond the table.

    ``xs`` must be uniform to a small fraction of its spacing, as
    :meth:`WaveState.from_grid` ensures: the interval of x is guessed from
    the spacing and corrected by one comparison each way.  The result is the
    interval ``searchsorted(xs, x) - 1`` picks, clipped to the table (NaN
    takes the last one).
    """

    xs: np.ndarray
    values: np.ndarray

    def __call__(self, x, t):
        x = np.asarray(x, dtype=float)
        xs = self.xs
        last = len(xs) - 2
        guess = (x - xs[0]) * ((last + 1) / (xs[-1] - xs[0]))
        i = np.fmax(np.fmin(guess, last), 0).astype(np.intp)
        i += (i < last) & (xs[i + 1] < x)
        i -= (i > 0) & (xs[i] >= x)
        x0 = xs[i]
        slope = (self.values[i + 1] - self.values[i]) / (xs[i + 1] - x0)
        return self.values[i] + slope * (x - x0)


class FreeGridDriftEvaluator:
    """Free drift b_F(x, t) for an arbitrary grid state, taken as the state
    at t = 0.

    :meth:`state` propagates the initial spectrum to the requested time
    (exact spectral free evolution), and :func:`drift` turns that state into
    the slice, a :class:`GridInterpEvaluator`.  Slices are cached per time
    value: the first ``_CACHE_SIZE`` (512) are kept and later ones are not
    inserted.  Fixed-point sweeps over a short mesh hit the cache, and so do
    the ``momentum`` chunks of one process, which share one evaluator and
    walk the step times in order: a longer run rebuilds only its steps past
    the first 512 in each further chunk, where evicting the oldest slice
    would evict exactly what the next chunk asks for first.
    """

    _CACHE_SIZE = 512

    def __init__(self, state: WaveState, nu: float):
        self.nu = float(nu)
        self.x = state.grid
        self.spectrum = np.fft.fft(state.amplitude)
        self.k2 = (2.0 * np.pi * np.fft.fftfreq(len(self.x), d=state.spacing)) ** 2
        self._cache = {}

    def state(self, t: float) -> WaveState:
        """The initial state freely evolved to time t: each Fourier
        mode picks up exp(-i k^2 t / 2), exactly norm preserving and
        time reversible.  Warns (GridTooNarrowWarning, one constant message,
        so Python's default filter shows it once per process) when the
        amplitude at either grid edge exceeds BOUNDARY_AMPLITUDE of its peak:
        the periodic step then wraps it around the box."""
        t = float(t)
        # k2[n - j] == k2[j] exactly (fftfreq negates j * val), so the factor
        # is evaluated over modes 0..n // 2 and mirrored onto the rest
        n = len(self.k2)
        half = np.exp(-0.5j * self.k2[:n // 2 + 1] * t)
        phase = np.concatenate((half, half[1:(n + 1) // 2][::-1]))
        psi = np.fft.ifft(self.spectrum * phase)
        mags = np.abs(psi)
        if max(mags[0], mags[-1]) > BOUNDARY_AMPLITUDE * mags.max():
            warnings.warn(f"relative amplitude at a grid edge exceeds {BOUNDARY_AMPLITUDE:.0e}; "
                          "widen the grid extent", GridTooNarrowWarning)
        return WaveState(grid=self.x, amplitude=psi)

    def _slice(self, t: float) -> GridInterpEvaluator:
        key = float(t)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        entry = drift(self.state(key), self.nu).evaluator
        if len(self._cache) < self._CACHE_SIZE:
            self._cache[key] = entry
        return entry

    def __call__(self, x, t):
        return self._slice(t)(x, t)


@dataclass(frozen=True)
class DriftField:
    """Evaluator (position, time) -> drift.

    ``domain`` is the x range the evaluator was tabulated on (grid-backed
    fields only); integrators count excursions beyond it as out-of-domain
    diagnostics.  Instances are immutable and safe to share across paths.
    """

    evaluator: Callable
    domain: Optional[Tuple[float, float]] = None

    def __call__(self, x, t):
        return self.evaluator(x, t)


def drift(state: GaussianState | WaveState, nu: float) -> DriftField:
    """Drift field b = 2 nu dR/dx + dS/dx of a state.

    A :class:`GaussianState` yields its closed-form :class:`GaussianDrift`
    (time dependent when spreading).  Grid states are split as
    psi = exp(R + i S) on their support, the contiguous range where |psi|
    clears the node threshold (NodeEncountered if a node lies inside it),
    with S phase-unwrapped outward from the grid center.  Central-difference
    gradients of R and S there are interpolated linearly and extrapolated
    linearly outside; such a field is frozen at the state's time, so it
    serves stationary dynamics or one time slice of a moving state
    (FreeGridDriftEvaluator).
    """
    if isinstance(state, GaussianState):
        return DriftField(GaussianDrift(nu, state.spreading))
    amps = state.amplitude
    mags = np.abs(amps)
    lo, hi = _support_bounds(mags)
    sub = slice(lo, hi + 1)
    R = np.log(mags[sub])
    center = int(np.clip(len(amps) // 2 - lo, 0, hi - lo))
    S = _unwrap_from(np.angle(amps[sub]), center)
    h = state.spacing
    b = (2.0 * nu * np.gradient(R, h, edge_order=2)
         + np.gradient(S, h, edge_order=2))
    xs = state.grid[sub]
    return DriftField(GridInterpEvaluator(xs=xs, values=b),
                      domain=(float(xs[0]), float(xs[-1])))


def free_drift(state: GaussianState | WaveState, nu: float) -> DriftField:
    """Drift of ``state`` evolving freely: for a Gaussian state, the same
    state spreading from t = 0; for a grid state, spectral propagation."""
    if isinstance(state, GaussianState):
        return drift(free_gaussian_state(), nu)
    return free_drift_field_from_grid(state, nu)


def free_drift_field_from_grid(state: WaveState, nu: float) -> DriftField:
    """Time-dependent free drift for a grid initial state (spectral propagation)."""
    ev = FreeGridDriftEvaluator(state, nu)
    return DriftField(ev, domain=(float(ev.x[0]), float(ev.x[-1])))


# ---------------------------------------------------------------------------
# Momentum density
# ---------------------------------------------------------------------------

@dataclass
class MomentumDensity:
    """Quantum momentum density rho(P) = |psi_hat(P)|^2 / (2 pi) on a P grid."""

    p: np.ndarray
    density: np.ndarray
    _cdf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        widths = np.diff(self.p)
        cdf = np.concatenate(([0.0], np.cumsum(0.5 * (self.density[1:] + self.density[:-1]) * widths)))
        self._cdf = cdf

    def cdf(self, values):
        """Cumulative distribution at ``values`` (scaled to end at 1)."""
        return np.interp(values, self.p, self._cdf / self._cdf[-1], left=0.0, right=1.0)


def momentum_density(state: WaveState) -> MomentumDensity:
    """Momentum density of a grid state via the discrete Fourier transform.

    psi_hat(P) = integral exp(-i P x) psi(x) dx approximated as h times the
    DFT; zero padding to four times the grid length refines the P resolution
    so the numeric CDF is accurate enough for distribution tests.
    """
    amp = state.amplitude
    n = len(amp) * 4
    h = state.spacing
    buf = np.zeros(n, dtype=complex)
    buf[:len(amp)] = amp
    np.fft.fft(buf, out=buf)
    buf *= h
    # |psi_hat|^2 / 2 pi in place, shifted once it is real (elementwise steps
    # commute with the shift); the complex buffer is freed before p is built
    rho = np.abs(buf)
    del buf
    rho **= 2
    rho /= 2.0 * np.pi
    p = np.fft.fftshift(np.fft.fftfreq(n, d=h))
    p *= 2.0 * np.pi
    return MomentumDensity(p=p, density=np.fft.fftshift(rho))


# ---------------------------------------------------------------------------
# Serialization (columns: x, re_psi, im_psi / p, rho)
# ---------------------------------------------------------------------------

def write_state(state: WaveState, path) -> None:
    tableio.write_table(path, {
        "x": state.grid,
        "re_psi": state.amplitude.real,
        "im_psi": state.amplitude.imag,
    })


def read_state(path) -> WaveState:
    cols = tableio.read_table(path)
    return WaveState.from_grid(cols["x"], cols["re_psi"] + 1j * cols["im_psi"])


def write_density(density: MomentumDensity, path) -> None:
    tableio.write_table(path, {"p": density.p, "rho": density.density})
