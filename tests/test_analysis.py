"""Distribution/percentile helpers."""

from __future__ import annotations

import math

import pytest

from repro.analysis.stats import Distribution, percentile, summarize


class TestPercentile:
    def test_endpoints(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0

    def test_median_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5

    def test_single_value(self):
        assert percentile([7.0], 99) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestDistribution:
    def test_from_optional_separates_misses(self):
        dist = Distribution.from_optional([1.0, None, 2.0, None])
        assert dist.values == [1.0, 2.0]
        assert dist.misses == 2
        assert dist.count == 4

    def test_basic_stats(self):
        dist = Distribution.from_optional([3.0, 1.0, 2.0])
        assert dist.min == 1.0
        assert dist.max == 3.0
        assert dist.median == 2.0
        assert dist.mean == 2.0

    def test_fraction_within_counts_misses(self):
        dist = Distribution.from_optional([1.0, 2.0, None, None])
        assert dist.fraction_within(1.5) == 0.25
        assert dist.fraction_within(10.0) == 0.5

    def test_quantile_with_misses_is_inf(self):
        dist = Distribution.from_optional([1.0, None])
        assert dist.quantile(99.0) == math.inf
        assert dist.quantile(40.0) == 1.0

    def test_p99_without_misses(self):
        dist = Distribution.from_optional([float(i) for i in range(1, 101)])
        assert dist.p99 == pytest.approx(99.01, rel=0.01)

    def test_cdf_monotone_and_complete(self):
        dist = Distribution.from_optional([float(i) for i in range(50)])
        cdf = dist.cdf(points=10)
        xs = [x for x, _ in cdf]
        ys = [y for _, y in cdf]
        assert xs == sorted(xs)
        assert ys == sorted(ys)
        assert ys[-1] == 1.0

    def test_cdf_with_misses_caps_below_one(self):
        dist = Distribution.from_optional([1.0, 2.0, None, None])
        cdf = dist.cdf()
        assert cdf[-1][1] == 0.5

    def test_empty_distribution(self):
        dist = Distribution.from_optional([])
        assert dist.count == 0
        assert math.isnan(dist.mean)

    def test_all_misses(self):
        dist = Distribution.from_optional([None, None])
        assert dist.fraction_within(1.0) == 0.0
        assert dist.quantile(50.0) == math.inf


def test_summarize_mentions_deadline():
    dist = Distribution.from_optional([1.0, 2.0])
    text = summarize(dist, deadline=4.0)
    assert "within 4s" in text
    assert "median" in text


def test_summarize_median_among_misses():
    """More than half missed: the median is a miss, not ``infms``."""
    dist = Distribution.from_optional([0.5, None, None])
    text = summarize(dist)
    assert "median=miss" in text
    assert "inf" not in text
    assert "max=500ms" in text


def test_summarize_empty():
    assert summarize(Distribution.from_optional([])) == "no samples"
