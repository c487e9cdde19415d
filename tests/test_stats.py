"""Histogram, KS, moment, and autocovariance diagnostics."""

import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from stochmech import stats
from stochmech import wavefunction as wf
from stochmech.errors import TooFewSamples


def gaussian_density():
    return wf.momentum_density(wf.to_grid(wf.harmonic_ground_state()))


# ---------------------------------------------------------------------------
# histogram
# ---------------------------------------------------------------------------

def test_histogram_density_normalization():
    rng = np.random.default_rng(1)
    hist = stats.Histogram.from_samples(rng.standard_normal(5000), bins=40)
    integral = float(np.sum(hist.density * np.diff(hist.edges)))
    assert abs(integral - 1.0) < 1e-12
    assert hist.counts.sum() == 5000


# ---------------------------------------------------------------------------
# KS against a tabulated density
# ---------------------------------------------------------------------------

def test_ks_self_consistency_by_inverse_cdf_sampling():
    density = gaussian_density()
    scaled = []
    pvals = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        # inverse CDF by linear interpolation between the density's nodes
        samples = np.interp(rng.random(2000), density.cdf(density.p), density.p)
        res = stats.ks_against_density(samples, density)
        scaled.append(res.statistic * math.sqrt(res.n))
        pvals.append(res.pvalue)
    # Kolmogorov law: median of sqrt(n) D is about 0.83
    assert 0.6 < np.median(scaled) < 1.1
    assert np.sum(np.array(pvals) > 0.01) >= 19


def test_ks_rejects_constant_samples():
    density = gaussian_density()
    res = stats.ks_against_density(np.zeros(500), density)
    assert res.statistic > 0.49
    assert res.pvalue < 1e-10


def test_ks_against_density_matches_scipy():
    density = gaussian_density()
    rng = np.random.default_rng(3)
    samples = rng.normal(scale=math.sqrt(0.5), size=4000)
    ours = stats.ks_against_density(samples, density)
    ref = scipy_stats.ks_1samp(samples, lambda x: scipy_stats.norm.cdf(x, scale=math.sqrt(0.5)))
    assert ours.statistic == pytest.approx(ref.statistic, abs=5e-4)
    assert ours.pvalue == pytest.approx(ref.pvalue, abs=0.02)


def test_ks_statistic_invariant_under_monotone_transform():
    density = gaussian_density()
    rng = np.random.default_rng(4)
    samples = rng.normal(scale=math.sqrt(0.5), size=1500)
    base = stats.ks_against_density(samples, density)
    # apply the strictly increasing map x -> x + x^3 to samples and target
    p = density.p
    transformed = wf.MomentumDensity(p=p + p ** 3,
                                     density=density.density / (1.0 + 3.0 * p * p))
    res = stats.ks_against_density(samples + samples ** 3, transformed)
    assert res.statistic == pytest.approx(base.statistic, abs=2e-3)


def test_ks_requires_enough_samples():
    with pytest.raises(TooFewSamples):
        stats.ks_against_density(np.arange(5), gaussian_density())


def test_two_sample_ks_same_and_shifted():
    rng = np.random.default_rng(5)
    a = rng.standard_normal(3000)
    b = rng.standard_normal(3000)
    same = stats.ks_two_sample(a, b)
    ref = scipy_stats.ks_2samp(a, b, method="asymp")
    assert same.statistic == pytest.approx(ref.statistic, abs=1e-12)
    assert same.pvalue > 0.01
    shifted = stats.ks_two_sample(a, b + 0.5)
    assert shifted.pvalue < 1e-6


def test_two_sample_ks_is_nan_when_a_sample_holds_a_nan():
    # before, NaN sorted as equal values: two all-NaN samples read D = 0, p = 1
    a = np.random.default_rng(4).standard_normal(20)
    for x, y in ((np.full(20, np.nan), np.full(20, np.nan)),
                 (a, np.append(a[1:], np.nan)), (np.append(a[1:], np.nan), a)):
        result = stats.ks_two_sample(x, y)
        assert math.isnan(result.statistic) and math.isnan(result.pvalue)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_moments_constant_samples():
    res = stats.moments([1.0, 1.0, 1.0])
    assert res.mean == 1.0
    assert res.variance == 0.0
    assert res.stderr_variance == 0.0


def test_moments_of_large_normal_sample():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(10 ** 6)
    res = stats.moments(x)
    assert abs(res.variance - 1.0) < 5.0 * math.sqrt(2.0 / 10 ** 6)
    assert res.stderr_variance == pytest.approx(math.sqrt(2.0 / 10 ** 6), rel=0.05)
    assert abs(res.mean) < 5.0 * res.stderr_mean


def test_moments_requires_two_samples():
    with pytest.raises(TooFewSamples):
        stats.moments([1.0])


def test_moments_permutation_invariant():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(500)
    a = stats.moments(x)
    b = stats.moments(x[::-1].copy())
    assert a.mean == pytest.approx(b.mean, abs=1e-15)
    assert a.variance == pytest.approx(b.variance, abs=1e-15)


# ---------------------------------------------------------------------------
# autocovariance
# ---------------------------------------------------------------------------

def test_autocovariance_white_noise():
    rng = np.random.default_rng(8)
    paths = rng.standard_normal((4000, 11))
    points = stats.autocovariance(paths, dt=0.1, lags=[0.0, 0.5, 1.0])
    assert points[0].estimate == pytest.approx(1.0, abs=5.0 * points[0].stderr)
    for pt in points[1:]:
        assert abs(pt.estimate) < 5.0 * pt.stderr


def test_autocovariance_rejects_out_of_range_lag():
    paths = np.zeros((10, 5))
    with pytest.raises(ValueError):
        stats.autocovariance(paths, dt=1.0, lags=[10.0])


def test_autocovariance_permutation_invariant_over_paths():
    rng = np.random.default_rng(9)
    paths = rng.standard_normal((300, 6))
    before = stats.autocovariance(paths, dt=0.5, lags=[0.0, 1.0])
    after = stats.autocovariance(paths[::-1].copy(), dt=0.5, lags=[0.0, 1.0])
    for a, b in zip(before, after):
        assert a.estimate == pytest.approx(b.estimate, abs=1e-14)
        assert a.stderr == pytest.approx(b.stderr, abs=1e-14)
