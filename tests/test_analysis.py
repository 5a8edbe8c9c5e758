"""Unit tests for the analysis modules (Figs. 4, 8, 12 and reporting)."""

from collections import Counter

import numpy as np
import pytest

from repro.analysis.coverage import (
    access_counts_per_page,
    coverage_curve,
    ideal_cache_size_for_coverage,
)
from repro.analysis.page_density import (
    DENSITY_BUCKETS,
    PageDensityTracker,
    bucket_fractions,
    density_bincount,
    mean_density,
    page_density_profile,
)
from repro.analysis.predictor_accuracy import AccuracyBreakdown, predictor_accuracy
from repro.analysis.report import format_table, percent, stacked_bar_rows
from repro.exp import ResultStore
from repro.mem.request import MemoryRequest, page_address
from repro.reporting import figures, run_figure
from repro.workloads.cloudsuite import WORKLOAD_NAMES, make_workload
from repro.workloads.synthetic import SyntheticWorkload


def request(addr):
    return MemoryRequest(address=addr)


def column(requests):
    """The int64 address column of a request list."""
    return np.array([r.address for r in requests], dtype=np.int64)


def reference_bincount(addresses, capacity_bytes, **geometry):
    """PageDensityTracker's bincount over the same addresses."""
    tracker = PageDensityTracker(capacity_bytes, **geometry)
    for address in addresses:
        tracker.observe(request(int(address)))
    return tuple(tracker.finish())


class TestPageDensity:
    def test_buckets_cover_1_to_32(self):
        covered = set()
        for low, high, _ in DENSITY_BUCKETS:
            covered.update(range(low, high + 1))
        assert covered == set(range(1, 33))

    def test_single_block_page(self):
        tracker = PageDensityTracker(capacity_bytes=16 * 2048)
        tracker.observe(request(0))
        tracker.finish()
        assert tracker.bincount[1] == 1

    def test_finish_is_idempotent(self):
        tracker = PageDensityTracker(capacity_bytes=16 * 2048)
        tracker.observe(request(0))
        first = list(tracker.finish())
        assert list(tracker.finish()) == first
        assert sum(tracker.bincount) == 1

    def test_density_counts_unique_blocks(self):
        tracker = PageDensityTracker(capacity_bytes=16 * 2048)
        for offset in (0, 64, 64, 128):
            tracker.observe(request(offset))
        tracker.finish()
        assert tracker.bincount[3] == 1

    def test_eviction_flushes_density(self):
        # 1 set x 2 ways: third page evicts the first.
        tracker = PageDensityTracker(capacity_bytes=2 * 2048, associativity=2)
        tracker.observe(request(0))
        tracker.observe(request(64))
        tracker.observe(request(2048))
        tracker.observe(request(2 * 2048))
        assert tracker.bincount[2] == 1  # page 0 evicted with 2 blocks

    def test_bucket_fractions_sum_to_one(self):
        tracker = PageDensityTracker(capacity_bytes=16 * 2048)
        for i in range(100):
            tracker.observe(request(i * 2048 + (i % 4) * 64))
        tracker.finish()
        assert sum(tracker.bucket_fractions().values()) == pytest.approx(1.0)

    def test_profile_function(self):
        trace = list(make_workload("web_search", seed=1).requests(5000))
        profile = page_density_profile(trace, capacity_bytes=64 * 2048)
        assert set(profile) == {label for _, _, label in DENSITY_BUCKETS}
        assert sum(profile.values()) == pytest.approx(1.0)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            PageDensityTracker(capacity_bytes=1000)


class TestBincountSummaries:
    """Fig. 4's bars and means, read off a bincount."""

    def test_fraction_in_range(self):
        # One residency each of 1, 2, 3 and 4 blocks.
        fractions = bucket_fractions((0, 1, 1, 1, 1))
        assert fractions["1 Block"] == pytest.approx(0.25)
        assert fractions["2-3 Blocks"] == pytest.approx(0.5)
        assert fractions["4-7 Blocks"] == pytest.approx(0.25)
        assert fractions["32 Blocks"] == 0.0

    def test_fraction_empty(self):
        assert set(bucket_fractions((0,) * 33).values()) == {0.0}
        assert set(bucket_fractions(()).values()) == {0.0}

    def test_mean(self):
        bincount = [0] * 33
        bincount[2] = bincount[4] = 2
        assert mean_density(bincount) == pytest.approx(3.0)

    def test_mean_empty(self):
        assert mean_density((0,) * 33) == 0.0
        assert mean_density(()) == 0.0


class TestDensityKernel:
    """The column kernel Fig. 4 runs equals the per-request reference."""

    def test_matches_reference_on_every_workload_and_capacity(self):
        for workload in WORKLOAD_NAMES:
            addresses = column(
                make_workload(
                    workload, seed=figures.SEED, dataset_scale=64 / figures.SCALE
                ).requests(20_000)
            )
            for capacity in figures.CAPACITIES_MB:
                capacity_bytes = capacity * figures.MB // figures.SCALE
                bincount = density_bincount(addresses, capacity_bytes)
                assert bincount[0] == 0
                assert bincount == reference_bincount(addresses, capacity_bytes), (
                    workload, capacity,
                )

    @pytest.mark.parametrize(
        "addresses, capacity_bytes, associativity, expected",
        [
            # 1 set x 2 ways: A0 B0 A1 C0 A2.  The touch of A makes B the
            # LRU victim (FIFO would evict A); A ends with 3 blocks.
            ([0, 2048, 64, 4096, 128], 2 * 2048, 2, {1: 2, 3: 1}),
            # Direct-mapped, 4 sets: pages 0 and 4 share set 0.
            ([0, 64, 4 * 2048, 2048 + 320], 4 * 2048, 1, {1: 2, 2: 1}),
            # A revisited after eviction starts a fresh residency.
            ([0, 64, 2048, 192], 2048, 1, {1: 2, 2: 1}),
            # An empty column records nothing.
            ([], 16 * 2048, 16, {}),
        ],
        ids=["lru-eviction-order", "direct-mapped", "revisit-after-eviction", "empty"],
    )
    def test_hand_made_cases(self, addresses, capacity_bytes, associativity, expected):
        bincount = density_bincount(
            np.array(addresses, dtype=np.int64), capacity_bytes,
            associativity=associativity,
        )
        assert {k: n for k, n in enumerate(bincount) if n} == expected
        assert bincount == reference_bincount(
            addresses, capacity_bytes, associativity=associativity
        )

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            density_bincount(np.array([0], dtype=np.int64), capacity_bytes=1000)


class TestTraceAnalysesMemo:
    def test_figs_4_and_12_generate_each_trace_once(
        self, short_trace_analyses, monkeypatch, tmp_path
    ):
        generated = Counter()
        generate = SyntheticWorkload.requests

        def counted(self, count):
            generated[self.profile.name] += 1
            return generate(self, count)

        monkeypatch.setattr(SyntheticWorkload, "requests", counted)
        store = ResultStore(str(tmp_path))
        first = run_figure("fig04", store=store)
        run_figure("fig12", store=store)
        assert generated == Counter({workload: 1 for workload in WORKLOAD_NAMES})

        # Figure data is rebuilt per render: mutating one render's data
        # leaves the next render, served from the memo, untouched.
        first.data["web_search"][64][0]["1 Block"] = -1.0
        first.data.clear()
        again = run_figure("fig04", store=store)
        assert again.artifacts == first.artifacts
        assert again.data["web_search"][64][0]["1 Block"] >= 0.0
        assert sum(generated.values()) == len(WORKLOAD_NAMES)


class TestCoverage:
    def test_access_counts(self):
        # Page 0 is accessed twice, page 4096 once (ascending page order).
        counts = access_counts_per_page([0, 64, 4096])
        assert counts.tolist() == [2, 1]

    def test_column_counts_match_per_request_counts(self):
        trace = list(make_workload("web_frontend", seed=1).requests(5000))
        counts = access_counts_per_page(column(trace))
        reference = Counter(page_address(r.address, 4096) for r in trace)
        assert len(counts) == len(reference)
        assert sorted(counts.tolist()) == sorted(reference.values())

    def test_curve_monotonic(self):
        counts = Counter({i * 4096: 100 - i for i in range(100)})
        curve = coverage_curve(counts)
        sizes = [size for _, size in curve]
        assert sizes == sorted(sizes)

    def test_skewed_needs_less_cache(self):
        skewed = Counter({0: 1000, 4096: 1, 8192: 1})
        uniform = Counter({0: 334, 4096: 334, 8192: 334})
        ((_, skewed_size),) = coverage_curve(skewed, points=(0.8,))
        ((_, uniform_size),) = coverage_curve(uniform, points=(0.8,))
        assert skewed_size < uniform_size

    def test_full_coverage_needs_all_pages(self):
        counts = Counter({i * 4096: 1 for i in range(10)})
        ((_, size),) = coverage_curve(counts, points=(1.0,))
        assert size == 10 * 4096

    def test_invalid_points(self):
        with pytest.raises(ValueError):
            coverage_curve(Counter({0: 1}), points=(0.0,))
        with pytest.raises(ValueError):
            coverage_curve(Counter(), points=(0.5,))

    def test_ideal_cache_size_for_coverage(self):
        trace = list(make_workload("web_search", seed=1).requests(5000))
        size = ideal_cache_size_for_coverage(column(trace), coverage=0.5)
        assert size > 0

    def test_scale_out_needs_large_fraction(self):
        """The Fig. 12 observation: no compact hot set — covering 80% of
        accesses needs a cache comparable to the touched footprint."""
        trace = column(make_workload("data_serving", seed=1).requests(20_000))
        counts = access_counts_per_page(trace)
        total_footprint = len(counts) * 4096
        size80 = ideal_cache_size_for_coverage(trace, coverage=0.8)
        assert size80 > 0.2 * total_footprint


class TestPredictorAccuracy:
    def test_breakdown(self):
        breakdown = predictor_accuracy(
            "web_search", capacity_mb=64, num_requests=60_000
        )
        assert isinstance(breakdown, AccuracyBreakdown)
        assert breakdown.coverage + breakdown.underprediction == pytest.approx(1.0)
        assert breakdown.overprediction >= 0
        row = breakdown.as_row()
        assert set(row) == {"Covered", "Underpredictions", "Overpredictions"}


class TestReport:
    def test_percent(self):
        assert percent(0.57) == "57.0%"
        assert percent(0.1234, digits=2) == "12.34%"

    def test_format_table(self):
        text = format_table(("a", "bb"), [(1, 2), (33, 4)])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "33" in lines[3]

    def test_format_table_title(self):
        text = format_table(("x",), [(1,)], title="Table 1")
        assert text.splitlines()[0] == "Table 1"

    def test_stacked_bar_rows(self):
        rows = stacked_bar_rows(
            {"page": {"64MB": 0.18}, "block": {"64MB": 0.62}}, columns=["64MB"]
        )
        assert rows[0] == ["page", "18.0%"]
        assert rows[1] == ["block", "62.0%"]
