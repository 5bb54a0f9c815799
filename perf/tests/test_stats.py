"""Exact quantiles, the spread estimator, histogram quantiles."""

import statistics

import pytest

from perfkit import stats


def test_quantile_is_exact_on_known_samples():
    samples = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert stats.quantile(samples, 0.0) == 10.0
    assert stats.quantile(samples, 1.0) == 50.0
    assert stats.quantile(samples, 0.5) == 30.0
    assert stats.quantile(samples, 0.25) == 20.0
    assert stats.quantile(samples, 0.95) == pytest.approx(48.0)
    assert stats.quantile([3.0, 1.0], 0.5) == 2.0     # order-independent


def test_median_matches_the_standard_library():
    for samples in ([1.0], [4.0, 1.0, 3.0], [9.0, 2.0, 7.0, 4.0]):
        assert stats.median(samples) == statistics.median(samples)


def test_quantile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.quantile([], 0.5)
    with pytest.raises(ValueError):
        stats.quantile([1.0], 1.5)


def test_quartiles_use_the_acceptance_estimator():
    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 9.7, 10.1]
    assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))


def test_histogram_quantile_interpolates_inside_the_bucket():
    buckets = [(0.001, 0.0), (0.01, 10.0), (0.1, 10.0), (float("inf"), 10.0)]
    assert stats.histogram_quantile(buckets, 0.5) == pytest.approx(0.0055)
    assert stats.histogram_quantile([], 0.5) == 0.0
    assert stats.histogram_quantile([(1.0, 0.0)], 0.5) == 0.0
