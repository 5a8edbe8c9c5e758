"""Unit tests for the memory controller (timing + traffic + energy)."""

import pytest

from repro.dram.address_mapping import AddressMapping
from repro.dram.bank import RowBufferPolicy, RowOutcome
from repro.dram.controller import MemoryController
from repro.dram.timing import OFF_CHIP_DDR3_1600, STACKED_DDR3_3200


def make_controller(policy=RowBufferPolicy.OPEN_PAGE, channels=1, interleave=2048):
    return MemoryController(
        timing=OFF_CHIP_DDR3_1600,
        mapping=AddressMapping(
            channels=channels, banks_per_channel=8, row_bytes=2048, interleave_bytes=interleave
        ),
        policy=policy,
    )


class TestBasicAccess:
    def test_first_access_row_closed(self):
        controller = make_controller()
        result = controller.access(0, 64, False, now=0)
        assert result.outcome is RowOutcome.CLOSED
        assert result.queue_cycles == 0
        assert result.latency > 0

    def test_row_hit_faster_than_conflict(self):
        controller = make_controller()
        controller.access(0, 64, False, 0)
        hit = controller.access(64, 64, False, 10_000)
        assert hit.outcome is RowOutcome.HIT
        # Another row in the same bank: stride past all channels/banks/rows.
        conflict = controller.access(8 * 2048, 64, False, 20_000)
        assert conflict.outcome is RowOutcome.CONFLICT
        assert hit.latency < conflict.latency

    def test_invalid_arguments(self):
        controller = make_controller()
        with pytest.raises(ValueError):
            controller.access(0, 0, False, 0)
        with pytest.raises(ValueError):
            controller.access(0, 64, False, -5)


class TestQueueing:
    def test_back_to_back_accesses_serialise(self):
        controller = make_controller()
        first = controller.access(0, 2048, False, 0)
        second = controller.access(0, 2048, False, 0)
        assert second.start_cycle >= first.finish_cycle
        assert second.queue_cycles > 0

    def test_different_banks_do_not_serialise(self):
        controller = make_controller()
        first = controller.access(0, 2048, False, 0)
        # Next page maps to another bank (1 channel -> bank rotation).
        second = controller.access(2048, 2048, False, 0)
        assert second.queue_cycles == 0
        assert first.queue_cycles == 0


class TestTraffic:
    def test_bytes_accounted(self):
        controller = make_controller()
        controller.access(0, 64, False, 0)
        controller.access(0, 128, True, 0)
        assert controller.bytes_read == 64
        assert controller.bytes_written == 128
        assert controller.total_bytes == 192

    def test_access_count_and_row_hits(self):
        controller = make_controller()
        controller.access(0, 64, False, 0)
        controller.access(64, 64, False, 0)
        assert controller.access_count == 2
        assert controller.row_hit_count == 1
        assert controller.row_hit_ratio == pytest.approx(0.5)

    def test_row_hit_ratio_empty(self):
        assert make_controller().row_hit_ratio == 0.0


class TestEnergy:
    def test_read_energy_accumulates(self):
        controller = make_controller()
        controller.access(0, 64, False, 0)
        assert controller.energy.read_nj > 0
        assert controller.energy.write_nj == 0

    def test_row_hits_burn_no_activate_energy(self):
        controller = make_controller()
        controller.access(0, 64, False, 0)
        before = controller.energy.activate_precharge_nj
        controller.access(64, 64, False, 0)
        assert controller.energy.activate_precharge_nj == before

    def test_close_page_burns_activate_every_access(self):
        controller = make_controller(policy=RowBufferPolicy.CLOSE_PAGE)
        controller.access(0, 64, False, 0)
        first = controller.energy.activate_precharge_nj
        controller.access(0, 64, False, 0)
        assert controller.energy.activate_precharge_nj == pytest.approx(2 * first)


class TestUtilization:
    def test_peak_bandwidth(self):
        # DDR3-1600 x64: 12.8GB/s = 4.266B per 3GHz CPU cycle.
        controller = make_controller()
        assert controller.peak_bandwidth_bytes_per_cycle() == pytest.approx(4.266, rel=1e-3)

    def test_stacked_peak_bandwidth_is_16x(self):
        # Four 128-bit DDR3-3200 channels vs one 64-bit DDR3-1600 channel:
        # 2 (width) x 2 (rate) x 4 (channels) = 16x per pod.
        stacked = MemoryController(
            timing=STACKED_DDR3_3200,
            mapping=AddressMapping(
                channels=4, banks_per_channel=8, row_bytes=2048, interleave_bytes=2048
            ),
        )
        offchip = make_controller()
        ratio = stacked.peak_bandwidth_bytes_per_cycle() / offchip.peak_bandwidth_bytes_per_cycle()
        assert ratio == pytest.approx(16.0)


class TestReset:
    def test_reset_stats(self):
        controller = make_controller()
        controller.access(0, 64, True, 0)
        controller.reset_stats()
        assert controller.access_count == 0
        assert controller.total_bytes == 0
        assert controller.energy.total_nj == 0.0

    def test_reset_keeps_row_state(self):
        controller = make_controller()
        controller.access(0, 64, False, 0)
        controller.reset_stats()
        result = controller.access(64, 64, False, 10_000)
        assert result.outcome is RowOutcome.HIT


class TestInlinedAccessEquivalence:
    """The controller composes the DRAM reference with one memoised rule.

    ``MemoryController.access`` calls ``AddressMapping.locate``,
    ``Bank.access``, ``Bank.reserve`` and the energy counters; the one
    rule it adds is :meth:`MemoryController.device_cycles`, memoised per
    (size, row code, write) and shared with the batch kernels.  This
    randomized test replays the same access sequence through the
    controller and through a step-by-step reference that computes the
    device cycles from the timing without the memo, and requires
    identical outcomes, timing, traffic, energy and bank state.
    """

    @staticmethod
    def _device_cycles(mapping, timing, policy, num_bytes, outcome, is_write):
        """Row operation + one stripe's burst (+ close-page write recovery)."""
        if outcome is RowOutcome.HIT:
            row_bus_cycles = timing.row_hit_bus_cycles
        elif outcome is RowOutcome.CLOSED:
            row_bus_cycles = timing.row_closed_bus_cycles
        else:
            row_bus_cycles = timing.row_conflict_bus_cycles
        stripe = min(num_bytes, mapping.interleave_bytes)
        burst = timing.burst_cycles(stripe)
        if is_write:
            row_bus_cycles += timing.t_wr if policy is RowBufferPolicy.CLOSE_PAGE else 0
        return timing.to_cpu_cycles(row_bus_cycles + burst, 3000)

    @classmethod
    def _reference_access(cls, mapping, timing, policy, banks, state, request):
        """One access computed from the primitives, without the memo."""
        address, num_bytes, is_write, now = request
        channel, bank_index, row = mapping.locate(address)
        bank = banks[channel][bank_index]
        bank_access = bank.access(row)
        device_cycles = cls._device_cycles(
            mapping, timing, policy, num_bytes, bank_access.outcome, is_write
        )
        start = bank.reserve(now, device_cycles)
        state["energy"].record_row_operations(bank_access.activates, bank_access.precharges)
        if is_write:
            state["energy"].record_write(num_bytes)
            state["bytes_written"] += num_bytes
        else:
            state["energy"].record_read(num_bytes)
            state["bytes_read"] += num_bytes
        return bank_access.outcome, start, start + device_cycles, start + device_cycles - now

    @pytest.mark.parametrize("policy", [RowBufferPolicy.OPEN_PAGE, RowBufferPolicy.CLOSE_PAGE])
    @pytest.mark.parametrize("interleave", [64, 2048])
    def test_randomized_equivalence(self, policy, interleave):
        import random

        from repro.dram.bank import Bank
        from repro.dram.energy import DramEnergyCounters, DramEnergyModel

        rng = random.Random(13)
        mapping = AddressMapping(
            channels=2, banks_per_channel=4, row_bytes=2048,
            interleave_bytes=interleave,
        )
        controller = MemoryController(
            timing=STACKED_DDR3_3200, mapping=mapping, policy=policy,
            energy_model=DramEnergyModel.stacked(),
        )
        banks = [[Bank(policy) for _ in range(4)] for _ in range(2)]
        state = {
            "energy": DramEnergyCounters(model=DramEnergyModel.stacked()),
            "bytes_read": 0, "bytes_written": 0,
        }

        now = 0
        for _ in range(2_000):
            request = (
                rng.randrange(0, 1 << 22) & ~63,
                rng.choice([64, 128, 512, 2048]),
                rng.random() < 0.3,
                now,
            )
            result = controller.access(*request)
            outcome, start, finish, latency = self._reference_access(
                mapping, STACKED_DDR3_3200, policy, banks, state, request,
            )
            assert result.outcome is outcome
            assert (result.start_cycle, result.finish_cycle, result.latency) == (
                start, finish, latency
            )
            now += rng.randrange(0, 200)

        # Every memoised entry is the rule computed without the memo.
        assert len(controller._device_cycles) >= 8  # 4 sizes x read/write
        for (num_bytes, code, is_write), cycles in controller._device_cycles.items():
            assert cycles == self._device_cycles(
                mapping, STACKED_DDR3_3200, policy, num_bytes, RowOutcome(code), is_write
            )
        assert controller.bytes_read == state["bytes_read"]
        assert controller.bytes_written == state["bytes_written"]
        assert controller.energy.activate_precharge_nj == state["energy"].activate_precharge_nj
        assert controller.energy.read_nj == state["energy"].read_nj
        assert controller.energy.write_nj == state["energy"].write_nj
        for channel in range(2):
            for index in range(4):
                reference_bank = banks[channel][index]
                live_bank = controller._banks[channel][index]
                assert live_bank.open_row == reference_bank.open_row
                assert live_bank.busy_until == reference_bank.busy_until
                assert live_bank.activate_count == reference_bank.activate_count
                assert live_bank.precharge_count == reference_bank.precharge_count
