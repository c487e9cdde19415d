"""Distribution diagnostics: histograms, KS tests, moments, autocovariance."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import TooFewSamples
from .wavefunction import MomentumDensity

MIN_KS_SAMPLES = 10


@dataclass(frozen=True)
class Histogram:
    edges: np.ndarray
    counts: np.ndarray
    density: np.ndarray

    @classmethod
    def from_samples(cls, samples, bins=64):
        counts, edges = np.histogram(np.asarray(samples, dtype=float), bins=bins)
        widths = np.diff(edges)
        total = counts.sum()
        density = counts / (total * widths) if total > 0 else np.zeros_like(widths)
        return cls(edges=edges, counts=counts, density=density)


@dataclass(frozen=True)
class KSResult:
    statistic: float
    n: int
    pvalue: float


@dataclass(frozen=True)
class MomentsResult:
    n: int
    mean: float
    variance: float
    stderr_mean: float
    stderr_variance: float


def kolmogorov_sf(lam: float) -> float:
    """Asymptotic Kolmogorov survival function 2 sum (-1)^{r-1} exp(-2 r^2 lam^2)."""
    if lam < 1.1e-8:
        return 1.0
    total = 0.0
    sign = 1.0
    for r in range(1, 101):
        term = math.exp(-2.0 * (r * lam) ** 2)
        total += sign * term
        if term < 1e-16 * max(total, 1e-300):
            break
        sign = -sign
    return min(max(2.0 * total, 0.0), 1.0)


def ks_against_density(samples, density: MomentumDensity) -> KSResult:
    """One-sample KS statistic of the samples against a tabulated density.

    The target CDF comes from the cumulative trapezoid of the density; the
    p-value is the asymptotic Kolmogorov law at sqrt(n) D, adequate for the
    thousands-of-samples regime this package runs at.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    if n < MIN_KS_SAMPLES:
        raise TooFewSamples(f"KS test needs >= {MIN_KS_SAMPLES} samples, got {n}")
    cdf = density.cdf(x)
    grid = np.arange(1, n + 1) / n
    d_plus = float(np.max(grid - cdf))
    d_minus = float(np.max(cdf - (grid - 1.0 / n)))
    d = max(d_plus, d_minus)
    return KSResult(statistic=d, n=n, pvalue=kolmogorov_sf(math.sqrt(n) * d))


def ks_two_sample(a, b) -> KSResult:
    """Two-sample KS statistic with the asymptotic p-value; both are NaN
    when either sample holds a NaN, which has no place in the order."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    n1, n2 = len(a), len(b)
    if min(n1, n2) < MIN_KS_SAMPLES:
        raise TooFewSamples(f"KS test needs >= {MIN_KS_SAMPLES} samples per side")
    if np.isnan(a[-1]) or np.isnan(b[-1]):        # np.sort puts NaN last
        return KSResult(statistic=math.nan, n=n1, pvalue=math.nan)
    pooled = np.concatenate([a, b])
    cdf1 = np.searchsorted(a, pooled, side="right") / n1
    cdf2 = np.searchsorted(b, pooled, side="right") / n2
    d = float(np.max(np.abs(cdf1 - cdf2)))
    en = math.sqrt(n1 * n2 / (n1 + n2))
    return KSResult(statistic=d, n=n1, pvalue=kolmogorov_sf(en * d))


def moments(samples) -> MomentsResult:
    """Mean and unbiased variance with standard errors.

    The variance standard error uses the fourth-moment formula
    Var(s^2) ~ (m4 - s^4 (n-3)/(n-1)) / n, exact for i.i.d. samples.
    """
    x = np.asarray(samples, dtype=float)
    n = len(x)
    if n < 2:
        raise TooFewSamples("moments need >= 2 samples")
    mean = float(np.mean(x))
    var = float(np.var(x, ddof=1))
    centered = x - mean
    m4 = float(np.mean(centered ** 4))
    var_of_var = max(m4 - var * var * (n - 3) / (n - 1), 0.0) / n
    return MomentsResult(n=n, mean=mean, variance=var,
                         stderr_mean=math.sqrt(var / n),
                         stderr_variance=math.sqrt(var_of_var))


@dataclass(frozen=True)
class AutocovariancePoint:
    lag: float
    estimate: float
    stderr: float


def autocovariance(paths: np.ndarray, dt: float, lags: Sequence[float]) -> list:
    """Cross-path covariance estimates E[x(s) x(s + lag)], s the first sample.

    ``paths`` holds one path per row sampled every ``dt``.  The estimator
    averages the product across paths (the processes here are centered by
    construction), so each lag comes with a clean i.i.d. standard error.
    """
    paths = np.asarray(paths, dtype=float)
    m, n_times = paths.shape
    out = []
    for lag in lags:
        j = round(lag / dt)
        if not 0 <= j < n_times:
            raise ValueError(f"lag {lag} falls outside the sampled range")
        prod = paths[:, 0] * paths[:, j]
        out.append(AutocovariancePoint(
            lag=float(lag),
            estimate=float(np.mean(prod)),
            stderr=float(np.std(prod, ddof=1) / math.sqrt(m)),
        ))
    return out
