"""Memory controller: address mapping + bank timing + energy, per channel.

One :class:`MemoryController` models all channels of one DRAM instance
(off-chip or stacked).  Latency of an access is::

    queue wait (bank busy)  +  row operation (hit/closed/conflict)  +  burst

all converted to CPU cycles.  This captures the three effects the paper's
design guidelines hinge on (Section 2.1): row-buffer locality, bank-level
parallelism/availability, and transfer size.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List

from repro.dram.address_mapping import AddressMapping
from repro.dram.bank import Bank, RowBufferPolicy
from repro.dram.energy import DramEnergyCounters, DramEnergyModel
from repro.dram.timing import DramTiming


class AccessOutcome(enum.Enum):
    """Row-buffer outcome of a DRAM access, for locality statistics."""

    ROW_HIT = "row_hit"
    ROW_CLOSED = "row_closed"
    ROW_CONFLICT = "row_conflict"


# Row-outcome codes used by the inlined bank state machine in access():
# 0 = HIT, 1 = CLOSED, 2 = CONFLICT (mirrors RowOutcome's classification).
_OUTCOME_CODES = (
    AccessOutcome.ROW_HIT,
    AccessOutcome.ROW_CLOSED,
    AccessOutcome.ROW_CONFLICT,
)


@dataclass(slots=True)
class DramAccessResult:
    """Timing outcome of one access.

    Created once per DRAM operation (a hot allocation), hence a
    ``__slots__`` dataclass; treat instances as immutable records.
    """

    outcome: AccessOutcome
    start_cycle: int
    finish_cycle: int
    latency: int
    queue_cycles: int


class MemoryController:
    """Controller for one DRAM instance (a set of identical channels).

    Parameters
    ----------
    timing:
        Device timing parameters.
    mapping:
        Address interleaving across channels/banks/rows.
    policy:
        Row-buffer policy (open- or close-page), chosen per cache design as
        in Section 5.2 of the paper.
    energy_model:
        Per-event energies; accumulated in :attr:`energy`.
    cpu_mhz:
        Core frequency for bus-to-CPU cycle conversion.
    """

    def __init__(
        self,
        timing: DramTiming,
        mapping: AddressMapping,
        policy: RowBufferPolicy = RowBufferPolicy.OPEN_PAGE,
        energy_model: DramEnergyModel = None,
        cpu_mhz: int = 3000,
    ) -> None:
        if mapping.row_bytes > timing.row_buffer_bytes and mapping.interleave_bytes > timing.row_buffer_bytes:
            raise ValueError(
                "address mapping rows cannot exceed the device row buffer "
                f"({mapping.row_bytes} > {timing.row_buffer_bytes})"
            )
        self.timing = timing
        self.mapping = mapping
        self.policy = policy
        self.cpu_mhz = cpu_mhz
        self.energy = DramEnergyCounters(model=energy_model or DramEnergyModel())
        self._banks: List[List[Bank]] = [
            [Bank(policy) for _ in range(mapping.banks_per_channel)]
            for _ in range(mapping.channels)
        ]
        self.access_count = 0
        self.row_hit_count = 0
        self.busy_cpu_cycles = 0
        self.bytes_read = 0
        self.bytes_written = 0
        # --- hot-path constants, computed once instead of per access ---
        # Address decomposition (mirrors AddressMapping.locate exactly).
        self._interleave_bytes = mapping.interleave_bytes
        self._channels = mapping.channels
        self._banks_per_channel = mapping.banks_per_channel
        self._chunks_per_row = max(1, mapping.row_bytes // mapping.interleave_bytes)
        # Row-operation bus cycles per outcome, write-recovery policy.
        self._close_page = policy is RowBufferPolicy.CLOSE_PAGE
        self._row_cycles = (
            timing.row_hit_bus_cycles,       # RowOutcome HIT  -> code 0
            timing.row_closed_bus_cycles,    # RowOutcome CLOSED -> code 1
            timing.row_conflict_bus_cycles,  # RowOutcome CONFLICT -> code 2
        )
        self._write_recovery = timing.t_wr if self._close_page else 0
        # (num_bytes, outcome_code, is_write) -> device CPU cycles.  The
        # distinct transfer sizes per run are few (block, footprint
        # multiples, page), so this memo removes the burst/row/convert
        # arithmetic from the per-access path without changing one cycle.
        self._device_cycles: dict = {}
        # Per-event energy constants (same factors record_read/record_write
        # multiply by; the division by 64.0 is exact, so inlining keeps the
        # accumulated floats bit-identical).
        model = self.energy.model
        self._activate_nj = model.activate_precharge_nj
        self._read_nj_per_64b = model.read_burst_nj_per_64b
        self._write_nj_per_64b = model.write_burst_nj_per_64b

    def access(self, address: int, num_bytes: int, is_write: bool, now: int = 0) -> DramAccessResult:
        """Perform one access of ``num_bytes`` starting at CPU cycle ``now``.

        ``num_bytes`` is the full transfer for this DRAM operation (64B for
        a block fetch, up to a page for a page fill).  Transfers larger than
        the interleave unit are striped across channels; we model the
        latency of the critical path (the widest stripe on one bank) and
        charge energy for all of it.

        The body is the de-virtualised equivalent of address
        ``mapping.locate`` + ``bank.access`` + timing/energy accounting:
        same arithmetic in the same order, with the per-access lookups and
        intermediate objects hoisted into construction-time constants (see
        ``__init__``).  ``Bank.access`` remains the reference state
        machine; ``tests/test_controller.py`` pins the equivalence.
        """
        if num_bytes <= 0:
            raise ValueError("num_bytes must be positive")
        if now < 0:
            raise ValueError("now must be non-negative")
        if address < 0:
            raise ValueError("address must be non-negative")

        # Address decomposition (== mapping.locate(address)).
        chunk = address // self._interleave_bytes
        channel = chunk % self._channels
        chunk //= self._channels
        bank = self._banks[channel][chunk % self._banks_per_channel]
        row = chunk // self._banks_per_channel // self._chunks_per_row

        # Bank row-buffer state machine (== bank.access(row)).
        open_row = bank._open_row
        if open_row is None:
            outcome_code = 1  # CLOSED
            activates = 1
            precharges = 0
        elif open_row == row:
            outcome_code = 0  # HIT
            activates = 0
            precharges = 0
        else:
            outcome_code = 2  # CONFLICT
            activates = 1
            precharges = 1
        if self._close_page:
            bank._open_row = None
            if outcome_code != 2:
                precharges += 1
        else:
            bank._open_row = row
        bank.activate_count += activates
        bank.precharge_count += precharges

        # Device cycles (== to_cpu_cycles(row op + burst [+ t_wr])).
        cycles_key = (num_bytes, outcome_code, is_write)
        device_cycles = self._device_cycles.get(cycles_key)
        if device_cycles is None:
            row_bus_cycles = self._row_cycles[outcome_code]
            stripe_bytes = min(num_bytes, self._interleave_bytes)
            burst_bus_cycles = self.timing.burst_cycles(stripe_bytes)
            if is_write:
                row_bus_cycles += self._write_recovery
            device_cycles = self.timing.to_cpu_cycles(
                row_bus_cycles + burst_bus_cycles, self.cpu_mhz
            )
            self._device_cycles[cycles_key] = device_cycles

        # Bank occupancy (== bank.reserve(now, device_cycles)).
        start = bank.busy_until
        if start < now:
            start = now
        bank.busy_until = start + device_cycles
        finish = start + device_cycles

        # Energy and traffic (== energy.record_* with the same float ops).
        if activates:
            self.energy.activate_precharge_nj += activates * self._activate_nj
        if is_write:
            self.energy.write_nj += num_bytes / 64.0 * self._write_nj_per_64b
            self.bytes_written += num_bytes
        else:
            self.energy.read_nj += num_bytes / 64.0 * self._read_nj_per_64b
            self.bytes_read += num_bytes

        self.access_count += 1
        if outcome_code == 0:
            self.row_hit_count += 1
        self.busy_cpu_cycles += device_cycles

        return DramAccessResult(
            outcome=_OUTCOME_CODES[outcome_code],
            start_cycle=start,
            finish_cycle=finish,
            latency=finish - now,
            queue_cycles=start - now,
        )

    @property
    def channels(self) -> int:
        """Number of channels behind this controller."""
        return self.mapping.channels

    @property
    def row_hit_ratio(self) -> float:
        """Fraction of accesses that hit an open row."""
        if self.access_count == 0:
            return 0.0
        return self.row_hit_count / self.access_count

    @property
    def total_bytes(self) -> int:
        """Total data moved through this DRAM instance."""
        return self.bytes_read + self.bytes_written

    def utilization(self, elapsed_cycles: int) -> float:
        """Aggregate bank-time utilisation over ``elapsed_cycles``.

        A summary of ``busy_cpu_cycles`` for analyses; the performance
        model does not read it.  Contention, which sinks the page-based
        design at small capacities (Fig. 6), comes from the bank queueing
        inside :meth:`access`.
        """
        if elapsed_cycles <= 0:
            raise ValueError("elapsed_cycles must be positive")
        capacity = elapsed_cycles * self.mapping.channels * self.mapping.banks_per_channel
        return min(1.0, self.busy_cpu_cycles / capacity)

    def peak_bandwidth_bytes_per_cycle(self) -> float:
        """Peak data bandwidth of all channels, in bytes per CPU cycle."""
        bytes_per_bus_cycle = self.timing.bus_width_bits / 8 * 2  # DDR: 2 beats
        return bytes_per_bus_cycle * self.channels * self.timing.bus_mhz / self.cpu_mhz

    def reset_stats(self) -> None:
        """Zero statistics and energy (keeps row-buffer/busy state)."""
        self.access_count = 0
        self.row_hit_count = 0
        self.busy_cpu_cycles = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.energy.reset()
        for channel_banks in self._banks:
            for bank in channel_banks:
                bank.reset_stats()
