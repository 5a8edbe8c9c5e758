"""Unit tests for workload profiles and the synthetic trace engine."""

import pytest

from repro.mem.request import page_address
from repro.workloads.cloudsuite import WORKLOAD_NAMES, make_workload
from repro.workloads.profiles import (
    AccessFunctionSpec,
    WorkloadProfile,
    all_profiles,
    profile_for,
)
from repro.workloads.synthetic import SyntheticWorkload
from repro.workloads.trace import Trace, trace_statistics


class TestProfiles:
    def test_all_six_workloads_registered(self):
        assert set(WORKLOAD_NAMES) == set(all_profiles())
        assert len(WORKLOAD_NAMES) == 6

    def test_profile_for_unknown_raises_with_hint(self):
        with pytest.raises(KeyError, match="web_search"):
            profile_for("nope")

    def test_function_weights_roughly_normalised(self):
        for profile in all_profiles().values():
            total = sum(f.weight for f in profile.functions)
            assert total == pytest.approx(1.0, abs=0.02)

    def test_scaled_shrinks_dataset(self):
        profile = profile_for("web_search")
        half = profile.scaled(0.5)
        assert half.dataset_bytes == profile.dataset_bytes // 2
        assert half.name == profile.name

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            profile_for("web_search").scaled(0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            AccessFunctionSpec(kind="bogus", weight=1.0)
        with pytest.raises(ValueError):
            AccessFunctionSpec(kind="sparse", weight=1.0, min_blocks=5, max_blocks=2)
        with pytest.raises(ValueError):
            AccessFunctionSpec(kind="full", weight=0.0)
        with pytest.raises(ValueError):
            AccessFunctionSpec(kind="full", weight=1.0, zipf_alpha=-1)
        with pytest.raises(ValueError):
            AccessFunctionSpec(kind="full", weight=1.0, write_fraction=1.5)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            WorkloadProfile(name="x", functions=(), dataset_bytes=1024)

    def test_sat_solver_has_drift(self):
        profile = profile_for("sat_solver")
        assert any(f.drift > 0 for f in profile.functions)

    def test_every_workload_has_singletons(self):
        for profile in all_profiles().values():
            assert any(f.kind == "singleton" for f in profile.functions)


class TestSyntheticWorkload:
    def test_deterministic_given_seed(self):
        a = list(make_workload("web_search", seed=7).requests(500))
        b = list(make_workload("web_search", seed=7).requests(500))
        assert a == b

    def test_different_seeds_differ(self):
        a = list(make_workload("web_search", seed=1).requests(500))
        b = list(make_workload("web_search", seed=2).requests(500))
        assert a != b

    def test_requests_have_valid_fields(self):
        profile = profile_for("data_serving")
        for request in make_workload("data_serving").requests(1000):
            assert request.address >= 0
            assert request.pc > 0
            assert 0 <= request.core_id < profile.num_cores
            assert request.instruction_count >= 1

    def test_requested_count_honoured(self):
        assert len(list(make_workload("mapreduce").requests(123))) == 123

    def test_zero_requests(self):
        assert list(make_workload("mapreduce").requests(0)) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            list(make_workload("mapreduce").requests(-1))

    def test_all_cores_used(self):
        cores = {r.core_id for r in make_workload("web_search").requests(2000)}
        assert len(cores) == 16

    def test_addresses_span_many_pages(self):
        pages = {
            page_address(r.address, 2048)
            for r in make_workload("web_search").requests(5000)
        }
        assert len(pages) > 50

    def test_page_size_shapes_footprints(self):
        workload = make_workload("web_search", page_size=1024)
        assert workload.blocks_per_page == 16
        for request in workload.requests(200):
            assert request.block_index_in_page(1024) < 16

    def test_invalid_page_size(self):
        with pytest.raises(ValueError):
            SyntheticWorkload(profile_for("web_search"), page_size=1000)

    def test_dataset_scale(self):
        small = make_workload("web_search", dataset_scale=0.25)
        assert small.profile.dataset_bytes == profile_for("web_search").dataset_bytes // 4

    def test_pc_correlation(self):
        """The same page revisited is touched by the same PC (the property
        the footprint predictor exploits)."""
        pc_by_page = {}
        consistent = 0
        revisits = 0
        for request in make_workload("web_search").requests(30_000):
            page = page_address(request.address, 2048)
            if page in pc_by_page:
                revisits += 1
                if pc_by_page[page] == request.pc:
                    consistent += 1
            else:
                pc_by_page[page] = request.pc
        assert revisits > 0
        assert consistent / revisits > 0.95

    def test_visits_counter(self):
        workload = make_workload("web_search")
        list(workload.requests(1000))
        assert workload.visits_opened >= workload.profile.pool_size


class TestTraceHelpers:
    def test_materialize_limit(self):
        workload = make_workload("web_search")
        assert len(Trace.from_requests(workload.requests(100), limit=10)) == 10

    def test_materialize_negative_limit(self):
        with pytest.raises(ValueError):
            Trace.from_requests([], limit=-1)

    def test_statistics(self):
        trace = list(make_workload("data_serving", seed=3).requests(5000))
        stats = trace_statistics(trace)
        assert stats.num_requests == 5000
        assert 0.0 < stats.write_fraction < 0.6
        assert stats.unique_pages > 10
        assert stats.unique_blocks >= stats.unique_pages
        assert stats.unique_pcs > 4
        assert stats.total_instructions > 5000

    def test_statistics_empty(self):
        stats = trace_statistics([])
        assert stats.num_requests == 0
        assert stats.write_fraction == 0.0
        assert stats.accesses_per_kilo_instruction == 0.0

    def test_bandwidth_demand_in_paper_band(self):
        """Section 5.3: 0.6-1.6 GB/s per core of off-chip demand.

        Demand = 64B per access / (instructions x CPI) at 3GHz with IPC~1:
        accesses-per-kilo-instruction between ~3 and ~10.
        """
        for name in WORKLOAD_NAMES:
            trace = list(make_workload(name, seed=1).requests(5000))
            stats = trace_statistics(trace)
            assert 2.5 <= stats.accesses_per_kilo_instruction <= 10.0, name
