"""Unit tests for the analytic performance model."""

import pytest

from repro.perf.timing_model import PerformanceModel, PerformanceResult


class TestPerformanceResult:
    def test_aggregate_ipc(self):
        result = PerformanceResult(instructions=3000, elapsed_cycles=1000, num_cores=16)
        assert result.aggregate_ipc == pytest.approx(3.0)

    def test_zero_cycles(self):
        result = PerformanceResult(instructions=100, elapsed_cycles=0, num_cores=16)
        assert result.aggregate_ipc == 0.0

    def test_improvement_over(self):
        fast = PerformanceResult(instructions=2000, elapsed_cycles=1000, num_cores=16)
        slow = PerformanceResult(instructions=1000, elapsed_cycles=1000, num_cores=16)
        assert fast.improvement_over(slow) == pytest.approx(1.0)

    def test_improvement_over_zero_baseline_raises(self):
        fast = PerformanceResult(instructions=2000, elapsed_cycles=1000, num_cores=16)
        zero = PerformanceResult(instructions=0, elapsed_cycles=1000, num_cores=16)
        with pytest.raises(ValueError):
            fast.improvement_over(zero)


class TestPerformanceModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            PerformanceModel(num_cores=0)
        with pytest.raises(ValueError):
            PerformanceModel(base_cpi=0)
        with pytest.raises(ValueError):
            PerformanceModel(exposed_latency_fraction=1.5)

    def test_core_time_advances(self):
        model = PerformanceModel(num_cores=2, base_cpi=1.0, exposed_latency_fraction=1.0)
        assert model.core_now(0) == 0
        model.advance(0, instructions=100, memory_latency=50)
        assert model.core_now(0) == 150
        assert model.core_now(1) == 0

    def test_exposed_fraction_scales_stall(self):
        full = PerformanceModel(num_cores=1, base_cpi=1.0, exposed_latency_fraction=1.0)
        half = PerformanceModel(num_cores=1, base_cpi=1.0, exposed_latency_fraction=0.5)
        full.advance(0, 0, 100)
        half.advance(0, 0, 100)
        assert full.core_now(0) == 100
        assert half.core_now(0) == 50

    def test_negative_rejected(self):
        model = PerformanceModel()
        with pytest.raises(ValueError):
            model.advance(0, -1, 0)
        with pytest.raises(ValueError):
            model.advance(0, 0, -1)

    def test_result_measures_after_start(self):
        model = PerformanceModel(num_cores=1, base_cpi=1.0, exposed_latency_fraction=1.0)
        model.advance(0, 1000, 0)
        model.start_measurement()
        model.advance(0, 500, 500)
        result = model.result()
        assert result.instructions == 500
        assert result.elapsed_cycles == 1000
        assert result.aggregate_ipc == pytest.approx(0.5)

    def test_elapsed_uses_slowest_core(self):
        model = PerformanceModel(num_cores=2, base_cpi=1.0, exposed_latency_fraction=1.0)
        model.start_measurement()
        model.advance(0, 100, 0)
        model.advance(1, 300, 0)
        assert model.result().elapsed_cycles == 300

    def test_core_id_wraps(self):
        model = PerformanceModel(num_cores=4)
        model.advance(6, 100, 0)  # lands on core 2
        assert model.core_now(2) > 0

    def test_total_instructions(self):
        model = PerformanceModel()
        model.advance(0, 10, 0)
        model.advance(1, 20, 0)
        assert model.total_instructions == 30

    def test_faster_memory_means_higher_ipc(self):
        def run(latency):
            model = PerformanceModel(num_cores=1, base_cpi=0.5, exposed_latency_fraction=0.7)
            model.start_measurement()
            for _ in range(100):
                model.advance(0, 100, latency)
            return model.result().aggregate_ipc

        assert run(50) > run(500)


class TestInlinedLoopEquivalence:
    def test_simulator_inline_arithmetic_matches_model(self):
        """The batch kernels inline core_now/advance.

        The reference loop calls the methods; the kernels in
        ``repro.vector.kernels`` keep per-core time in the model's own
        list and total instructions per segment.  This pins that
        recurrence: the inlined form (locals bound, the same float
        expression) must walk per-core time and instruction totals
        exactly like the public methods, for arbitrary sequences.
        """
        import random

        rng = random.Random(11)
        events = [
            (rng.randrange(0, 40), rng.randrange(0, 500), rng.randrange(0, 900))
            for _ in range(3_000)
        ]

        reference = PerformanceModel(
            num_cores=16, base_cpi=0.55, exposed_latency_fraction=0.7
        )
        nows_reference = []
        for core_id, instructions, latency in events:
            nows_reference.append(reference.core_now(core_id))
            reference.advance(core_id, instructions, latency)

        inlined = PerformanceModel(
            num_cores=16, base_cpi=0.55, exposed_latency_fraction=0.7
        )
        core_time = inlined._core_time
        num_cores = inlined.num_cores
        base_cpi = inlined.base_cpi
        exposed = inlined.exposed_latency_fraction
        nows_inlined = []
        total = 0
        for core_id, instructions, latency in events:
            core = core_id % num_cores
            nows_inlined.append(int(core_time[core]))
            core_time[core] += instructions * base_cpi + latency * exposed
            total += instructions
        inlined._instructions += total

        assert nows_inlined == nows_reference
        assert inlined._core_time == reference._core_time
        assert inlined.total_instructions == reference.total_instructions
        assert inlined.result() == reference.result()
