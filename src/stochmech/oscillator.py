"""Closed forms for the harmonic-oscillator ground-state scenario.

The interacting process is the stationary Ornstein-Uhlenbeck diffusion with
drift -2 nu x (stationary variance 1/2, covariance (1/2) exp(-2 nu |dt|)).
The coupled free path, started with x at t = 0, admits the
integrating-factor solution

    x_F(t) = e^{-g(t)} [ x(0) + int e^{g} dx + 2 nu int e^{g(s)} x(s) ds ]

with g(t) = 2 nu arctan(t) - (1/2) ln(1 + t^2), and the momentum limit
collapses to the weighted path integral

    P = e^{-nu pi} int_0^inf x(t) e^{g(t)} (2 nu - g'(t)) dt.

Everything here is an independent ground truth the numerical pipeline is
checked against: nothing in this module touches the SDE integrators or
imports from the package, and the functions read only ``nu``.
"""

import math

import numpy as np


def gamma(t, nu: float):
    """Integrating-factor exponent 2 nu arctan(t) - ln(1 + t^2)/2."""
    t = np.asarray(t, dtype=float)
    return 2.0 * nu * np.arctan(t) - 0.5 * np.log1p(t * t)


def gamma_rate(t, nu: float):
    """d gamma / dt = (2 nu - t) / (1 + t^2), the free drift coefficient."""
    t = np.asarray(t, dtype=float)
    return (2.0 * nu - t) / (1.0 + t * t)


def ou_covariance(t1, t2, nu: float):
    """Stationary position covariance (1/2) exp(-2 nu |t1 - t2|)."""
    return 0.5 * np.exp(-2.0 * nu * np.abs(np.asarray(t1, float) - np.asarray(t2, float)))


def momentum_quadrature_weights(times: np.ndarray, nu: float) -> np.ndarray:
    """Weight e^{-nu pi} e^{g(t)} (2 nu - g'(t)) multiplying x(t) in the
    momentum integral, on a mesh."""
    return math.exp(-nu * math.pi) * (
        np.exp(gamma(times, nu)) * (2.0 * nu - gamma_rate(times, nu)))


def coupled_path_closed_form(times, positions, nu: float, carry=None):
    """Evaluate the integrating-factor solution for x_F on a path mesh.

    The dx integral is the pathwise left-endpoint Riemann-Stieltjes sum (the
    integrand is deterministic in t, so there is no Ito/Stratonovich
    ambiguity); the dt integral uses the trapezoid rule.  ``positions`` is
    one path of len(times) values or a (len(times), n_paths) matrix.

    Returns x_F and the carry (x(0) and the two running sums at the last
    row).  A mesh may be walked in row blocks, each starting on the last row
    of the one before: the first block passes ``carry=None`` and each later
    one its predecessor's carry.  The carry heads each block's cumulative
    sums, so every partial sum, and x_F, is that of one whole-mesh call bit
    for bit.
    """
    times = np.asarray(times, dtype=float)
    x = np.asarray(positions, dtype=float)
    x0, rs0, tz0 = (x[0], 0.0, 0.0) if carry is None else carry
    g = gamma(times, nu)
    eg = np.exp(g)
    dts = np.diff(times)
    if x.ndim == 2:
        g, eg, dts = g[:, None], eg[:, None], dts[:, None]
    rs = np.empty_like(x)
    rs[0] = rs0
    rs[1:] = eg[:-1] * np.diff(x, axis=0)
    np.cumsum(rs, axis=0, out=rs)
    integrand = eg * x
    tz = np.empty_like(x)
    tz[0] = tz0
    np.add(integrand[1:], integrand[:-1], out=tz[1:])
    tz[1:] *= 0.5
    tz[1:] *= dts
    np.cumsum(tz, axis=0, out=tz)
    carry = np.array([x0, rs[-1], tz[-1]])
    # exp(-g) (x(0) + rs + 2 nu tz): the same products and sums, in place so
    # that a row block makes few temporaries of its size
    tz *= 2.0 * nu
    rs += x0
    rs += tz
    rs *= np.exp(-g)
    return rs, carry


# ---------------------------------------------------------------------------
# Exact law of the Euler scheme
# ---------------------------------------------------------------------------

def _euler_rows(horizon: float, nu: float, dt: float) -> tuple:
    """Coefficient rows of (quadrature, x(T), x_F(T)) on the independent
    Gaussians (x0, dW_0 .. dW_{N-1}) of the ensemble kernel, with their variances.

    The kernel steps x <- a x + dW with a = 1 - 2 nu dt, and x_F <- b_k x_F + dW
    with b_k = 1 - gamma_rate(t_k) dt on the same dW, N = round(T / dt) times;
    x0 = x_F0.  The quadrature is its trapezoid sum, weights dt w(t_k) halved
    at both ends.  Each row holds a coefficient on x0, then one per dW_j.
    """
    steps = round(horizon / dt)
    t = dt * np.arange(steps + 1)
    a = 1.0 - 2.0 * nu * dt
    c = dt * momentum_quadrature_weights(t, nu)
    c[[0, -1]] *= 0.5
    rows = np.empty((3, steps + 1))
    # backward, in place: S_{j-1} = c_j + a S_j is the quadrature's coefficient on
    # dW_{j-1} (on x0 for j = 0); nothing divides by a power of a, which underflows at large T
    quad = rows[0]
    acc = quad[-1] = c.item(-1)
    for j in range(steps - 1, -1, -1):
        acc = quad[j] = c.item(j) + a * acc
    rows[1] = a ** np.arange(steps, -1, -1.0)
    rows[2, :-1] = np.cumprod((1.0 - dt * gamma_rate(t[:-1], nu))[::-1])[::-1]
    rows[2, -1] = 1.0
    var = np.full(steps + 1, 2.0 * nu * dt)
    var[0] = 0.5
    return rows, var


def euler_covariance(horizon: float, nu: float, dt: float) -> np.ndarray:
    """Exact 3x3 covariance of (quadrature, x(T), x_F(T)) as the
    ensemble kernel computes them at step dt, with the stationary start
    x0 = x_F0 ~ N(0, 1/2).  The momentum P = x_F(T) / T; its variance
    tends to (1 + 1/T^2) / 2 as dt -> 0."""
    rows, var = _euler_rows(horizon, nu, dt)
    return (rows * var) @ rows.T


def difference_bound(horizon: float, nu: float, dt: float) -> float:
    """Per-path bound on |quadrature - x_F(T)/T| holding for >= 99% of
    paths: three exact standard deviations of the difference under the
    Euler scheme at step dt."""
    rows, var = _euler_rows(horizon, nu, dt)
    diff = rows[0] - rows[2] / horizon
    return 3.0 * math.sqrt(float(var @ (diff * diff)))
