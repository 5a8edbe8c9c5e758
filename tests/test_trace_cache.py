"""Determinism tests for the shared columnar trace cache.

The trace cache (:mod:`repro.workloads.trace`) is a pure optimization: a
request stream served cold, from a warm cache, as a longer trace's
prefix, as windows of a continued stream, inside a worker process, or
through ``Simulator.run(trace=...)`` must be value-identical to what the
live generator would produce.  These tests pin that invariant — the
byte-parity gate in CI depends on it.
"""

import dataclasses
import multiprocessing

import pytest

from repro.mem.request import AccessType, MemoryRequest
from repro.sim.config import SimulationConfig
from repro.sim.simulator import Simulator
import repro.sim.simulator as simulator_module
import repro.vector.engine as vector_engine
import repro.workloads.trace as trace_module
from repro.workloads.cloudsuite import WORKLOAD_NAMES, make_workload
from repro.workloads.synthetic import SyntheticWorkload
from repro.workloads.trace import Trace, TraceCache, shared_trace_cache


def fresh_stream(n, seed=0, page_size=2048, workload="web_search"):
    return list(make_workload(workload, seed=seed, page_size=page_size).requests(n))


def profile_of(workload="web_search"):
    return make_workload(workload).profile



class TestFastConstructor:
    def test_equals_validated_construction(self):
        normal = MemoryRequest(
            address=4096, pc=0x400, access_type=AccessType.WRITE,
            core_id=3, instruction_count=17,
        )
        fast = MemoryRequest.fast(4096, 0x400, AccessType.WRITE, 3, 17)
        assert fast == normal
        assert dataclasses.asdict(fast) == dataclasses.asdict(normal)
        assert fast.is_write and fast.block_address() == 4096

    def test_defaults_match(self):
        assert MemoryRequest.fast(64) == MemoryRequest(address=64)


class TestTraceColumns:
    def test_round_trip(self):
        stream = fresh_stream(400)
        trace = Trace.from_requests(stream)
        assert len(trace) == 400
        assert list(trace.requests()) == stream
        assert list(trace.addresses) == [r.address for r in stream]
        assert list(trace.writes) == [1 if r.is_write else 0 for r in stream]

    def test_limit(self):
        stream = fresh_stream(50)
        source = iter(stream)
        trace = Trace.from_requests(source, limit=20)
        assert len(trace) == 20
        assert next(source) == stream[20]  # consumed exactly `limit` deep

    def test_indexing(self):
        stream = fresh_stream(30)
        trace = Trace.from_requests(stream)
        assert list(trace.requests(5, 6)) == stream[5:6]
        assert list(trace.requests(29, 30)) == stream[-1:]
        assert list(trace.requests(3, 7)) == stream[3:7]
        assert list(trace.requests(7, 7)) == []


class TestTraceCacheDeterminism:
    def test_cold_equals_generator(self):
        cache = TraceCache(max_entries=4)
        served = cache.requests(profile_of(), 0, 2048, 600)
        assert served == fresh_stream(600)
        assert cache.misses == 1 and cache.hits == 0

    def test_warm_equals_cold(self):
        cache = TraceCache(max_entries=4)
        cold = cache.requests(profile_of(), 3, 2048, 500)
        warm = cache.requests(profile_of(), 3, 2048, 500)
        assert warm == cold
        assert cache.hits == 1

    def test_prefix_of_longer_trace(self):
        cache = TraceCache(max_entries=4)
        short = cache.requests(profile_of(), 0, 2048, 300)
        long = cache.requests(profile_of(), 0, 2048, 900)
        assert long[:300] == short
        assert long == fresh_stream(900)

    def test_segment_serving_is_exact_continuation(self):
        cache = TraceCache(max_entries=4)
        first = cache.requests(profile_of(), 0, 2048, 400)
        second = cache.requests(profile_of(), 0, 2048, 400, start=400)
        assert first + second == fresh_stream(800)

    def test_distinct_keys_do_not_alias(self):
        cache = TraceCache(max_entries=8)
        base = cache.requests(profile_of(), 0, 2048, 200)
        assert cache.requests(profile_of(), 1, 2048, 200) != base
        assert cache.requests(profile_of(), 0, 4096, 200) != base
        assert cache.requests(profile_of("mapreduce"), 0, 2048, 200) != base

    def test_eviction_regenerates_identically(self):
        cache = TraceCache(max_entries=1)
        first = cache.requests(profile_of(), 0, 2048, 300)
        cache.requests(profile_of("mapreduce"), 0, 2048, 100)  # evicts web_search
        assert len(cache) == 1
        again = cache.requests(profile_of(), 0, 2048, 300)
        assert again == first
        assert cache.misses == 3  # every fill was a cold generation

    def test_total_request_budget_evicts_lru(self):
        cache = TraceCache(max_entries=8, max_total_requests=500)
        first = cache.requests(profile_of(), 0, 2048, 300)
        cache.requests(profile_of(), 1, 2048, 300)  # 600 total: seed-0 evicted
        assert cache.cached_requests <= 500
        assert len(cache) == 1
        assert cache.requests(profile_of(), 0, 2048, 300) == first

    def test_oversized_single_entry_evicted_after_serving(self):
        cache = TraceCache(max_entries=4, max_total_requests=100)
        served = cache.requests(profile_of(), 0, 2048, 250)
        assert len(cache) == 0  # over budget on its own: dropped, not pinned
        assert served == fresh_stream(250)
        assert cache.requests(profile_of(), 0, 2048, 250) == served

    def test_validation(self):
        cache = TraceCache(max_entries=2)
        with pytest.raises(ValueError):
            cache.requests(profile_of(), 0, 2048, -1)
        with pytest.raises(ValueError):
            cache.columnar(profile_of(), 0, 2048, 10, start=-1)
        with pytest.raises(ValueError):
            TraceCache(max_entries=0)
        with pytest.raises(ValueError):
            TraceCache(max_total_requests=-1)


class TestWindowCoverage:
    """Windows of a continued stream concatenate to the generator's.

    Each cache is driven only through one access path, so every window
    continues the live generator where the previous one stopped.  The
    split points sit at the first request, on both sides of the object
    view's first 4096-request column chunk, and inside a later one.
    """

    SPLITS = (1, 4095, 4096, 9999)
    LENGTH = 12_000
    FIELDS = ("address", "pc", "access_type", "core_id", "instruction_count")

    def windows(self):
        bounds = (0, *self.SPLITS, self.LENGTH)
        return list(zip(bounds, bounds[1:]))

    @pytest.mark.parametrize("workload", WORKLOAD_NAMES)
    def test_windows_concatenate_to_the_stream(self, workload):
        stream = fresh_stream(self.LENGTH, workload=workload)
        profile = profile_of(workload)

        expected = {
            "addresses": [r.address for r in stream],
            "pcs": [r.pc for r in stream],
            "writes": [1 if r.is_write else 0 for r in stream],
            "core_ids": [r.core_id for r in stream],
            "instruction_counts": [r.instruction_count for r in stream],
        }
        by_columns = TraceCache()
        columns = {name: [] for name in expected}
        for start, stop in self.windows():
            trace = by_columns.columnar(profile, 0, 2048, stop - start, start=start)
            for name in expected:
                columns[name].extend(getattr(trace, name)[start:stop])
        assert columns == expected

        by_objects = TraceCache()
        served = []
        for start, stop in self.windows():
            served.extend(
                by_objects.requests(profile, 0, 2048, stop - start, start=start)
            )
        for name in self.FIELDS:
            assert [getattr(r, name) for r in served] == [
                getattr(r, name) for r in stream
            ], name
        assert by_columns.misses == by_objects.misses == 1


class TestCacheStats:
    def test_stats_snapshot(self):
        cache = TraceCache(max_entries=4)
        empty = cache.stats()
        assert empty["entries"] == 0
        assert empty["hit_rate"] is None
        assert empty["resident_bytes"] == 0

        cache.requests(profile_of(), 0, 2048, 300)   # miss
        cache.requests(profile_of(), 0, 2048, 300)   # hit
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["max_entries"] == 4
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)
        assert stats["evictions"] == 0
        assert stats["cached_requests"] == 300
        assert stats["resident_bytes"] > 0

    def test_stats_count_evictions(self):
        cache = TraceCache(max_entries=1)
        cache.requests(profile_of(), 0, 2048, 100)
        cache.requests(profile_of("mapreduce"), 0, 2048, 100)
        assert cache.stats()["evictions"] == 1
        cache.clear()
        # clear() resets residency but keeps the lifetime counters.
        stats = cache.stats()
        assert stats["entries"] == 0
        assert stats["evictions"] == 1


def _worker_stream_fields(args):
    """Materialise a trace inside a worker process (module-level for mp)."""
    workload, seed, n = args
    from repro.workloads.cloudsuite import make_workload
    from repro.workloads.trace import shared_trace_cache

    profile = make_workload(workload).profile
    served = shared_trace_cache().requests(profile, seed, 2048, n)
    return [
        (r.address, r.pc, r.is_write, r.core_id, r.instruction_count)
        for r in served
    ]


class TestWorkerProcessDeterminism:
    def test_worker_serves_identical_stream(self):
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(1) as pool:
            remote = pool.map(_worker_stream_fields, [("web_search", 0, 300)])[0]
        local = [
            (r.address, r.pc, r.is_write, r.core_id, r.instruction_count)
            for r in fresh_stream(300)
        ]
        assert remote == local


class TestSimulatorFastPath:
    def small_config(self, **kwargs):
        return SimulationConfig.scaled(
            "web_search", kwargs.pop("design", "footprint"), 256,
            scale=256, num_requests=kwargs.pop("num_requests", 6_000), **kwargs
        )

    def test_cached_run_equals_explicit_trace(self):
        config = self.small_config()
        workload = make_workload(
            config.workload, seed=config.seed,
            page_size=config.cache.page_size, dataset_scale=config.dataset_scale,
        )
        trace = list(workload.requests(6_000))
        via_cache = Simulator(config).run()
        via_trace = Simulator(config).run(trace=trace)
        assert via_cache == via_trace

    def test_cold_and_warm_runs_identical(self):
        config = self.small_config(seed=7)
        shared_trace_cache().clear()
        cold = Simulator(config).run()
        warm = Simulator(config).run()
        assert cold == warm

    def test_repeated_runs_deterministic_across_simulators(self):
        config = self.small_config()
        sim_a, sim_b = Simulator(config), Simulator(config)
        assert sim_a.run() == sim_b.run()
        # Second runs continue the stream, identically on both.
        assert sim_a.run() == sim_b.run()

    @pytest.mark.parametrize("design", ("footprint", "block"))
    def test_iterator_consumed_exactly_num_requests(self, design, monkeypatch):
        # Explicit requests are copied into columns a chunk at a time;
        # uneven chunks must still consume exactly num_requests.
        monkeypatch.setattr(simulator_module, "STREAM_CHUNK_REQUESTS", 700)
        config = self.small_config(design=design, num_requests=3_000)
        stream = fresh_stream(3_100)
        source = iter(stream)
        result = Simulator(config).run(trace=source)
        assert next(source) == stream[3_000]
        assert result == Simulator(config).run(trace=stream)

    @pytest.mark.parametrize("design", ("footprint", "block"))
    def test_continuation_past_budget_generates_each_request_once(
        self, design, monkeypatch
    ):
        # Three runs on one simulator continue one stream past the
        # shared budget; the third run's window outgrows it and is
        # evicted as soon as it is claimed.  Each run must still
        # generate only its own requests (a kernel replay used to miss,
        # and regenerate the prefix, once per segment after that).
        config = self.small_config(design=design, num_requests=2_500)
        reference = Simulator(config)
        expected = [reference._run_reference() for _ in range(3)]

        monkeypatch.setattr(vector_engine, "SEGMENT_REQUESTS", 500)
        monkeypatch.setattr(
            trace_module, "_SHARED", TraceCache(max_total_requests=5_000)
        )
        generate = SyntheticWorkload.requests
        generated = [0]

        def counting(self, count):
            for request in generate(self, count):
                generated[0] += 1
                yield request

        monkeypatch.setattr(SyntheticWorkload, "requests", counting)
        simulator = Simulator(config)
        for want in expected:
            generated[0] = 0
            assert simulator.run() == want
            assert generated[0] == 2_500

    @pytest.mark.parametrize("design", ("footprint", "block"))
    def test_run_longer_than_budget_streams_outside_the_cache(
        self, design, monkeypatch
    ):
        # A run longer than the cache's whole budget must neither hold
        # its whole window nor flush the other cached traces: it
        # generates privately, outside the cache lock, one bounded chunk
        # at a time, and continues its stream like a cached run.
        config = self.small_config(design=design, num_requests=12_000)
        reference = Simulator(config)
        expected = [reference._run_reference() for _ in range(2)]

        cache = TraceCache(max_total_requests=5_000)
        monkeypatch.setattr(trace_module, "_SHARED", cache)
        monkeypatch.setattr(simulator_module, "STREAM_CHUNK_REQUESTS", 1_000)
        monkeypatch.setattr(vector_engine, "SEGMENT_REQUESTS", 700)
        cache.columnar(profile_of("data_serving"), 0, 2048, 4_000)
        before = cache.stats()

        generate = SyntheticWorkload.requests

        def unlocked(self, count):
            for request in generate(self, count):
                assert not cache._lock.locked()
                yield request

        monkeypatch.setattr(SyntheticWorkload, "requests", unlocked)
        simulator = Simulator(config)
        claim = simulator._windows
        held = []

        def recording(trace=None):
            for window, start, stop in claim(trace):
                held.append(len(window))
                yield window, start, stop

        simulator._windows = recording
        for want in expected:
            held.clear()
            assert simulator.run() == want
            assert sum(held) == 12_000
            assert max(held) <= 1_000
        assert cache.stats() == before
