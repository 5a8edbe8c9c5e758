"""Unit tests for the geometric mean the figures aggregate with."""

import pytest
from hypothesis import given, strategies as st

from repro.perf.stats import geometric_mean


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

    @given(st.lists(st.floats(min_value=0.1, max_value=100), min_size=1, max_size=20))
    def test_geometric_mean_bounded_by_min_max(self, values):
        result = geometric_mean(values)
        assert min(values) - 1e-9 <= result <= max(values) + 1e-9
