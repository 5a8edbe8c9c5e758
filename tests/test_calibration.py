"""Calibration regression tests: the workload properties the paper's
characterisation (Section 6.1) relies on must not silently drift.

These pin the qualitative Fig. 4 shapes per workload so that future
profile edits that would invalidate EXPERIMENTS.md fail loudly here.
"""

import pytest

from repro.analysis.page_density import PageDensityTracker, mean_density
from repro.workloads.cloudsuite import WORKLOAD_NAMES, make_workload
from repro.workloads.trace import trace_statistics

MB = 1024 * 1024
N = 40_000


@pytest.fixture(scope="module")
def traces():
    return {
        name: list(make_workload(name, seed=0, dataset_scale=0.25).requests(N))
        for name in WORKLOAD_NAMES
    }


def density(trace, capacity_bytes):
    tracker = PageDensityTracker(capacity_bytes)
    for request in trace:
        tracker.observe(request)
    tracker.finish()
    return tracker


class TestFig4Shapes:
    def test_density_grows_with_capacity(self, traces):
        for name, trace in traces.items():
            small = mean_density(density(trace, 256 * 1024).bincount)
            large = mean_density(density(trace, 2 * MB).bincount)
            assert large >= small * 0.9, name

    def test_singletons_significant_everywhere(self, traces):
        for name, trace in traces.items():
            fractions = density(trace, 256 * 1024).bucket_fractions()
            assert fractions["1 Block"] > 0.1, name

    def test_web_search_densest(self, traces):
        means = {
            name: mean_density(density(trace, 2 * MB).bincount)
            for name, trace in traces.items()
        }
        assert means["web_search"] == max(means.values())

    def test_mapreduce_among_sparsest(self, traces):
        """MapReduce and SAT Solver are the paper's low-density workloads."""
        means = {
            name: mean_density(density(trace, 2 * MB).bincount)
            for name, trace in traces.items()
        }
        ranked = sorted(means, key=means.get)
        assert "mapreduce" in ranked[:2]
        assert "sat_solver" in ranked[:2]


class TestTraceShape:
    def test_write_fractions_in_band(self, traces):
        for name, trace in traces.items():
            stats = trace_statistics(trace)
            expected_read_heavy = name == "web_search"
            if expected_read_heavy:
                assert stats.write_fraction < 0.12, name
            else:
                assert 0.1 < stats.write_fraction < 0.45, name

    def test_data_serving_most_bandwidth_hungry(self, traces):
        apki = {
            name: trace_statistics(trace).accesses_per_kilo_instruction
            for name, trace in traces.items()
        }
        assert apki["data_serving"] == max(apki.values())
        assert apki["multiprogrammed"] == min(apki.values())

    def test_instruction_mix_covers_all_pcs_eventually(self, traces):
        for name, trace in traces.items():
            pcs = {r.pc for r in trace}
            assert len(pcs) >= 20, name
