"""Closed forms for the harmonic-oscillator ground-state scenario.

The interacting process is the stationary Ornstein-Uhlenbeck diffusion with
drift -2 nu x (stationary variance 1/2, covariance (1/2) exp(-2 nu |dt|)).
The coupled free path admits the integrating-factor solution

    x_F(t) = e^{-g(t)} [ x(t0) + int e^{g} dx + 2 nu int e^{g(s)} x(s) ds ]

with g(t) = 2 nu arctan(t - t0) - (1/2) ln(1 + (t - t0)^2), and the momentum
limit collapses to the weighted path integral

    P = e^{-nu pi} int_{t0}^inf x(t) e^{g(t)} (2 nu - g'(t)) dt.

Everything here is an independent ground truth the numerical pipeline is
checked against; nothing in this module touches the SDE integrators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OscillatorScenario:
    nu: float
    t0: float = 0.0

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError("nu must be positive")


def gamma(t, scen: OscillatorScenario):
    """Integrating-factor exponent 2 nu arctan(tau) - ln(1 + tau^2)/2."""
    tau = np.asarray(t, dtype=float) - scen.t0
    return 2.0 * scen.nu * np.arctan(tau) - 0.5 * np.log1p(tau * tau)


def gamma_rate(t, scen: OscillatorScenario):
    """d gamma / dt = (2 nu - tau) / (1 + tau^2), the free drift coefficient."""
    tau = np.asarray(t, dtype=float) - scen.t0
    return (2.0 * scen.nu - tau) / (1.0 + tau * tau)


def ou_covariance(t1, t2, scen: OscillatorScenario):
    """Stationary position covariance (1/2) exp(-2 nu |t1 - t2|)."""
    return 0.5 * np.exp(-2.0 * scen.nu * np.abs(np.asarray(t1, float) - np.asarray(t2, float)))


def momentum_weight(t, scen: OscillatorScenario):
    """Weight e^{g(t)} (2 nu - g'(t)) multiplying x(t) in the momentum integral."""
    return np.exp(gamma(t, scen)) * (2.0 * scen.nu - gamma_rate(t, scen))


def momentum_quadrature_weights(times: np.ndarray, scen: OscillatorScenario) -> np.ndarray:
    """Full integrand weight including the e^{-nu pi} prefactor, on a mesh."""
    return math.exp(-scen.nu * math.pi) * momentum_weight(times, scen)


def coupled_path_closed_form(times, positions, scen: OscillatorScenario,
                             gamma_fn=None) -> np.ndarray:
    """Evaluate the integrating-factor solution for x_F on a path mesh.

    The dx integral is the pathwise left-endpoint Riemann-Stieltjes sum (the
    integrand is deterministic in t, so there is no Ito/Stratonovich
    ambiguity); the dt integral uses the trapezoid rule.  ``positions`` is
    one path of len(times) values or a (len(times), n_paths) matrix.
    ``gamma_fn`` overrides the exponent (a negative-control hook for the
    verification suite).
    """
    times = np.asarray(times, dtype=float)
    x = np.asarray(positions, dtype=float)
    g = (gamma_fn or gamma)(times, scen)
    eg = np.exp(g)
    dts = np.diff(times)
    if x.ndim == 2:
        g, eg, dts = g[:, None], eg[:, None], dts[:, None]
    dx = np.diff(x, axis=0)
    rs = np.zeros_like(x)
    np.cumsum(eg[:-1] * dx, axis=0, out=rs[1:])
    integrand = eg * x
    tz = np.zeros_like(x)
    np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * dts, axis=0, out=tz[1:])
    return np.exp(-g) * (x[0] + rs + 2.0 * scen.nu * tz)


# ---------------------------------------------------------------------------
# Gaussian second moments of the finite-horizon estimators
# ---------------------------------------------------------------------------

def _weight_double_integral(horizon: float, scen: OscillatorScenario, n: int) -> tuple:
    """D = iint w w cov and C = int w(t) cov(T, t) dt on [t0, t0+T]."""
    t = scen.t0 + np.linspace(0.0, horizon, n)
    w = momentum_weight(t, scen)
    cov = ou_covariance(t[:, None], t[None, :], scen)
    inner = np.trapezoid(w[None, :] * cov, t, axis=1)
    d = float(np.trapezoid(w * inner, t))
    c = float(np.trapezoid(w * ou_covariance(t[-1], t, scen), t))
    return d, c


def integral_variance(horizon: float, scen: OscillatorScenario, n: int = 2001) -> float:
    """Exact variance of the truncated momentum integral (tends to 1/2 like
    1/2 - 2 nu / T as the horizon grows)."""
    d, _ = _weight_double_integral(horizon, scen, n)
    return math.exp(-2.0 * scen.nu * math.pi) * d


def ratio_variance(horizon: float, scen: OscillatorScenario, n: int = 2001) -> float:
    """Exact variance of the finite-horizon ratio estimate x_F(t0+T)/T."""
    d, c = _weight_double_integral(horizon, scen, n)
    t_end = scen.t0 + horizon
    pref = math.exp(-float(gamma(t_end, scen))) / horizon
    return 0.5 / horizon ** 2 + pref * pref * d + 2.0 * (pref / horizon) * c


def estimator_difference_std(horizon: float, scen: OscillatorScenario, n: int = 2001) -> float:
    """Std of (momentum quadrature - ratio estimate) on one path at horizon T.

    Both estimators are linear functionals of the same Gaussian path, so the
    difference variance follows from the closed-form covariance:

        diff = (e^{-nu pi} - e^{-g(T)}/T) int w x dt  -  x(T)/T.
    """
    d, c = _weight_double_integral(horizon, scen, n)
    t_end = scen.t0 + horizon
    dpref = math.exp(-scen.nu * math.pi) - math.exp(-float(gamma(t_end, scen))) / horizon
    var = dpref * dpref * d + 0.5 / horizon ** 2 - 2.0 * dpref * (1.0 / horizon) * c
    return math.sqrt(max(var, 0.0))


# Per-step discretization slack for the two-route momentum comparison; the
# measured dt sensitivity of the difference is well under 2 dt in path units.
DIFFERENCE_DT_SLACK = 2.0


def difference_bound(horizon: float, scen: OscillatorScenario, dt: float) -> float:
    """Documented per-path bound on |quadrature - ratio| holding for >= 99%
    of paths: three closed-form standard deviations plus discretization slack."""
    return 3.0 * estimator_difference_std(horizon, scen) + DIFFERENCE_DT_SLACK * dt
