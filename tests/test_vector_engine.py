"""Byte-parity gate for the replay path.

``Simulator.run()`` replays through a NumPy batch kernel where the
design has one and through the scalar reference loop otherwise; the
kernel path may not change a single stored byte.  These tests enforce
it the strong way — full ``SimulationResult.to_dict()`` and
``StatGroup.as_dict()`` equality plus deep post-run state comparison
(controller counters and energies, bank row/busy state, tag contents
*and LRU orders*, predictor tables) between ``run()`` and the reference
loop called directly, for every registered design, across workload
profiles and seeds, including randomized traces.  Plus the edge cases
that historically break segmented replay: empty segments, single
requests, warm-up boundaries landing exactly on segment edges, and
continuation runs.
"""

from __future__ import annotations

import threading

import pytest

from repro.caches.registry import design_names
from repro.exp.spec import ExperimentPoint
from repro.mem.request import MemoryRequest
from repro.sim.config import SimulationConfig
from repro.sim.simulator import Simulator
import repro.vector.engine as vector_engine
from repro.workloads.trace import shared_trace_cache


def small_config(profile="web_search", design="footprint", seed=0, requests=12_000):
    return SimulationConfig.scaled(
        profile, design, 256, scale=256, num_requests=requests, seed=seed
    )


def state_snapshot(sim):
    """Every observable post-run state of the simulated system."""
    cache = sim.system.cache
    snap = {"stats": dict(sorted(cache.stats.as_dict().items()))}
    for name in ("stacked", "offchip"):
        controller = getattr(cache, name, None)
        if controller is None:
            continue
        snap[name] = {
            "access": controller.access_count,
            "rowhit": controller.row_hit_count,
            "busy": controller.busy_cpu_cycles,
            "bytes": (controller.bytes_read, controller.bytes_written),
            "energy": (
                controller.energy.activate_precharge_nj,
                controller.energy.read_nj,
                controller.energy.write_nj,
            ),
            "banks": [
                (bank._open_row, bank.busy_until, bank.activate_count,
                 bank.precharge_count)
                for channel in controller._banks
                for bank in channel
            ],
        }
    sram = None
    if hasattr(cache, "tags") and hasattr(cache.tags, "_tags"):
        sram = cache.tags._tags
    elif hasattr(cache, "_tags"):
        sram = cache._tags
    if sram is not None:
        snap["tags"] = [
            (sorted((key, repr(value)) for key, value in entries.items()),
             list(policy._order))
            for entries, policy in zip(sram._entries, sram._policies)
        ]
    fht = getattr(cache, "fht", None)
    if fht is not None:
        snap["fht"] = (
            (fht.lookups, fht.hits, fht.updates, fht.stale_updates),
            [
                (sorted((k, v.footprint_mask) for k, v in entries.items()),
                 list(policy._order))
                for entries, policy in zip(
                    fht._table._entries, fht._table._policies
                )
            ],
        )
        stats = cache.predictor_stats
        snap["predictor"] = (
            stats.covered_blocks,
            stats.underpredicted_blocks,
            stats.overpredicted_blocks,
        )
    singleton = getattr(cache, "singleton_table", None)
    if singleton is not None:
        snap["singleton"] = (
            (singleton.recorded, singleton.second_access_hits),
            [
                (sorted((k, (v.pc, v.offset)) for k, v in entries.items()),
                 list(policy._order))
                for entries, policy in zip(
                    singleton._table._entries, singleton._table._policies
                )
            ],
        )
    snap["core_time"] = list(sim.perf._core_time)
    return snap


def run_both(config, trace=None):
    """(reference result+state, run() result+state) for one config."""
    reference = Simulator(config)
    reference_result = reference._run_reference(trace)
    default = Simulator(config)
    default_result = default.run(trace=trace)
    return [
        (reference_result.to_dict(), state_snapshot(reference)),
        (default_result.to_dict(), state_snapshot(default)),
    ]


def assert_parity(config, trace=None):
    (reference_result, reference_state), (result, state) = run_both(
        config, trace=trace
    )
    assert result == reference_result
    assert state == reference_state


class TestEquivalenceEveryDesign:
    """The gate itself: every design, multiple profiles and seeds."""

    @pytest.mark.parametrize("design", design_names())
    @pytest.mark.parametrize("profile", ("web_search", "data_serving"))
    def test_design_profile_parity(self, design, profile):
        assert_parity(small_config(profile=profile, design=design))

    @pytest.mark.parametrize("seed", (1, 7, 42))
    def test_randomized_seeds_footprint(self, seed):
        assert_parity(small_config(design="footprint", seed=seed))

    @pytest.mark.parametrize("design", ("page", "baseline"))
    def test_randomized_seeds_other_kernels(self, design):
        assert_parity(small_config(design=design, seed=3))

    @pytest.mark.parametrize("design", ("footprint", "page", "baseline"))
    @pytest.mark.parametrize("workload", ("web_search", "data_serving"))
    def test_sweep_point_parity(self, workload, design):
        # The points of a 64 MB, 6,000-request sweep over the designs
        # with a kernel, configured exactly as `repro sweep` builds them.
        point = ExperimentPoint(
            workload=workload, design=design, capacity_mb=64, num_requests=6_000
        )
        assert_parity(point.config())


class TestDispatch:
    """Which path replays a default configuration is pinned per design."""

    KERNEL_DESIGNS = ("footprint", "page", "baseline")
    REFERENCE_DESIGNS = ("ideal", "block", "subblock", "chop")

    @pytest.mark.parametrize("design", KERNEL_DESIGNS + REFERENCE_DESIGNS)
    def test_default_configuration_dispatch(self, design):
        simulator = Simulator(small_config(design=design, requests=2_000))
        simulator.run()
        assert simulator.used_kernel == (design in self.KERNEL_DESIGNS)


class TestSegmentEdges:
    def test_empty_trace(self):
        assert_parity(small_config(), trace=[])

    def test_single_request(self):
        trace = [MemoryRequest(address=0x1000, pc=0x400, core_id=0)]
        assert_parity(small_config(), trace=trace)

    def test_tiny_segments_split_runs(self, monkeypatch):
        # A prime segment size forces run boundaries everywhere: inside
        # the warm-up, at the warm-up edge, and at the trace tail.
        monkeypatch.setattr(vector_engine, "SEGMENT_REQUESTS", 257)
        assert_parity(small_config(requests=3_000))

    def test_warmup_exactly_at_segment_edge(self, monkeypatch):
        # num_requests = 4 segments, warm-up = 2 segments: the stats
        # reset lands precisely on a segment boundary.
        monkeypatch.setattr(vector_engine, "SEGMENT_REQUESTS", 500)
        assert_parity(small_config(requests=2_000))

    def test_trace_ends_at_warmup_boundary(self):
        # A trace exactly as long as the warm-up: zero measured requests
        # in the reference; the kernel path must agree.
        config = small_config(requests=2_000)
        trace = [
            MemoryRequest(address=(i % 64) * 2048, pc=0x400, core_id=i % 16)
            for i in range(config.warmup_requests)
        ]
        assert_parity(config, trace=trace)

    def test_continuation_run_parity(self):
        # Two back-to-back replays on one Simulator continue the same
        # request stream; the second run must match the reference's.
        config = small_config(requests=6_000)
        reference = Simulator(config)
        reference._run_reference()
        expected = reference._run_reference().to_dict()
        simulator = Simulator(config)
        simulator.run()
        assert simulator.run().to_dict() == expected
        assert state_snapshot(simulator) == state_snapshot(reference)

    def test_trace_can_grow_after_vector_run(self):
        # A finished kernel replay leaves the cached trace growable.
        config = small_config(requests=4_000)
        sim = Simulator(config)
        sim.run()
        sim.run()  # continuation extends the cached trace in place


def reference_result(config):
    return Simulator(config)._run_reference().to_dict()


class _InterleavedKernel:
    """A kernel that runs ``interleave()`` once, inside its first segment."""

    def __init__(self, kernel, interleave) -> None:
        self._kernel = kernel
        self._interleave = interleave

    def run_segment(self, cols):
        if self._interleave is not None:
            interleave, self._interleave = self._interleave, None
            interleave()
        return self._kernel.run_segment(cols)


class TestConcurrentReplay:
    """Replays of one cached stream in one process (``repro serve`` jobs).

    While a kernel replays a segment, another replay of the same stream
    may need the shared cache's trace longer; growing it must not fail.
    """

    def test_longer_replay_inside_a_segment(self, monkeypatch):
        shared_trace_cache().clear()
        monkeypatch.setattr(vector_engine, "SEGMENT_REQUESTS", 500)
        short = small_config(seed=11, requests=2_000)
        longer = small_config(seed=11, requests=6_000)
        results = {}

        def run_longer():
            results["longer"] = Simulator(longer).run().to_dict()

        build_kernel = vector_engine.build_kernel

        def interleaving_build_kernel(sim):
            kernel = build_kernel(sim)
            if sim.config.num_requests == short.num_requests:
                kernel = _InterleavedKernel(kernel, run_longer)
            return kernel

        monkeypatch.setattr(vector_engine, "build_kernel", interleaving_build_kernel)
        results["short"] = Simulator(short).run().to_dict()
        assert results == {
            "short": reference_result(short),
            "longer": reference_result(longer),
        }

    def test_threads_replay_one_stream(self, monkeypatch):
        shared_trace_cache().clear()
        monkeypatch.setattr(vector_engine, "SEGMENT_REQUESTS", 512)
        configs = [small_config(seed=13, requests=n) for n in (4_000, 8_000)]
        results, errors = {}, []

        def run(config):
            try:
                results[config.num_requests] = Simulator(config).run().to_dict()
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(c,)) for c in configs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert results == {c.num_requests: reference_result(c) for c in configs}
