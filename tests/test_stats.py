"""Unit tests for the statistics primitives."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.perf.stats import (
    Counter,
    Histogram,
    RatioStat,
    StatGroup,
    geometric_mean,
    mean,
)


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("c").value == 0

    def test_increment_default(self):
        counter = Counter("c")
        counter.increment()
        assert counter.value == 1

    def test_increment_amount(self):
        counter = Counter("c")
        counter.increment(5)
        counter.increment(3)
        assert counter.value == 8

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").increment(-1)

    def test_negative_initial_rejected(self):
        with pytest.raises(ValueError):
            Counter("c", initial=-1)

    def test_reset(self):
        counter = Counter("c", initial=7)
        counter.reset()
        assert counter.value == 0


class TestRatioStat:
    def test_empty_ratio_is_zero(self):
        assert RatioStat("r").ratio == 0.0

    def test_record(self):
        ratio = RatioStat("r")
        ratio.record(True)
        ratio.record(False)
        ratio.record(True)
        assert ratio.ratio == pytest.approx(2 / 3)

    def test_bulk_add(self):
        ratio = RatioStat("r")
        ratio.add(3, 10)
        assert ratio.ratio == pytest.approx(0.3)

    def test_negative_add_rejected(self):
        with pytest.raises(ValueError):
            RatioStat("r").add(-1, 5)

    def test_reset(self):
        ratio = RatioStat("r")
        ratio.record(True)
        ratio.reset()
        assert ratio.denominator == 0


class TestHistogram:
    def test_total(self):
        histogram = Histogram("h")
        histogram.record(3)
        histogram.record(3)
        histogram.record(5, count=4)
        assert histogram.total == 6

    def test_count(self):
        histogram = Histogram("h")
        histogram.record(2, count=3)
        assert histogram.count(2) == 3
        assert histogram.count(9) == 0

    def test_items_sorted(self):
        histogram = Histogram("h")
        histogram.record(5)
        histogram.record(1)
        histogram.record(3)
        assert [v for v, _ in histogram.items()] == [1, 3, 5]

    def test_fraction_in_range(self):
        histogram = Histogram("h")
        for value in (1, 2, 3, 4):
            histogram.record(value)
        assert histogram.fraction_in_range(2, 3) == pytest.approx(0.5)

    def test_fraction_empty(self):
        assert Histogram("h").fraction_in_range(0, 10) == 0.0

    def test_mean(self):
        histogram = Histogram("h")
        histogram.record(2, count=2)
        histogram.record(4, count=2)
        assert histogram.mean() == pytest.approx(3.0)

    def test_mean_empty(self):
        assert Histogram("h").mean() == 0.0

    def test_percentile(self):
        histogram = Histogram("h")
        for value in range(1, 11):
            histogram.record(value)
        assert histogram.percentile(0.5) == 5
        assert histogram.percentile(1.0) == 10

    def test_percentile_empty_raises(self):
        with pytest.raises(ValueError):
            Histogram("h").percentile(0.5)

    def test_percentile_out_of_range(self):
        with pytest.raises(ValueError):
            Histogram("h").percentile(1.5)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h").record(1, count=-1)

    def test_reset(self):
        histogram = Histogram("h")
        histogram.record(1)
        histogram.reset()
        assert histogram.total == 0


class TestStatGroup:
    def test_counter_get_or_create(self):
        group = StatGroup("g")
        assert group.counter("x") is group.counter("x")

    def test_ratio_get_or_create(self):
        group = StatGroup("g")
        assert group.ratio("x") is group.ratio("x")

    def test_histogram_get_or_create(self):
        group = StatGroup("g")
        assert group.histogram("x") is group.histogram("x")

    def test_reset_propagates(self):
        group = StatGroup("g")
        group.counter("c").increment(5)
        group.ratio("r").record(True)
        group.histogram("h").record(1)
        group.reset()
        assert group.counter("c").value == 0
        assert group.ratio("r").denominator == 0
        assert group.histogram("h").total == 0

    def test_as_dict(self):
        group = StatGroup("g")
        group.counter("c").increment(2)
        group.ratio("r").add(1, 2)
        flattened = group.as_dict()
        assert flattened["c"] == 2.0
        assert flattened["r"] == 0.5

    def test_as_dict_includes_histograms(self):
        group = StatGroup("g")
        group.histogram("density").record(4)
        group.histogram("density").record(8)
        flattened = group.as_dict()
        assert flattened["density_mean"] == 6.0
        assert flattened["density_total"] == 2.0

    def test_as_dict_empty_histogram(self):
        group = StatGroup("g")
        group.histogram("density")
        flattened = group.as_dict()
        assert flattened["density_mean"] == 0.0
        assert flattened["density_total"] == 0.0

    def test_histograms_accessor(self):
        group = StatGroup("g")
        histogram = group.histogram("density")
        histogram.record(3, count=5)
        accessor = group.histograms()
        assert accessor["density"] is histogram
        assert accessor["density"].count(3) == 5
        # The returned mapping is a copy; mutating it changes nothing.
        accessor.clear()
        assert group.histograms()["density"] is histogram


class TestAggregates:
    def test_geometric_mean_simple(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_geometric_mean_single(self):
        assert geometric_mean([3.0]) == pytest.approx(3.0)

    def test_geometric_mean_empty_raises(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_geometric_mean_nonpositive_raises(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])

    @given(st.lists(st.floats(min_value=0.1, max_value=100), min_size=1, max_size=20))
    def test_geometric_mean_bounded_by_min_max(self, values):
        result = geometric_mean(values)
        assert min(values) - 1e-9 <= result <= max(values) + 1e-9
