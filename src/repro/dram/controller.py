"""Memory controller: address mapping + bank timing + energy, per channel.

One :class:`MemoryController` models all channels of one DRAM instance
(off-chip or stacked).  Latency of an access is::

    queue wait (bank busy)  +  row operation (hit/closed/conflict)  +  burst

all converted to CPU cycles.  This captures the three effects the paper's
design guidelines hinge on (Section 2.1): row-buffer locality, bank-level
parallelism/availability, and transfer size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.dram.address_mapping import AddressMapping
from repro.dram.bank import Bank, RowBufferPolicy, RowOutcome
from repro.dram.energy import DramEnergyCounters, DramEnergyModel
from repro.dram.timing import DramTiming


@dataclass(slots=True)
class DramAccessResult:
    """Timing outcome of one access.

    Created once per DRAM operation (a hot allocation), hence a
    ``__slots__`` dataclass; treat instances as immutable records.
    """

    outcome: RowOutcome
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
        self.bytes_read = 0
        self.bytes_written = 0
        # (num_bytes, row code, is_write) -> device CPU cycles; the batch
        # kernels look up this dict directly (see device_cycles).
        self._device_cycles: dict = {}

    def device_cycles(self, num_bytes: int, code: int, is_write: bool) -> int:
        """CPU cycles a bank is busy serving one access (memoised).

        The row operation (``code`` is the :class:`RowOutcome` value: 0
        hit, 1 closed, 2 conflict), then the burst of one interleave
        stripe, plus write recovery on a close-page write.  The distinct
        transfer sizes per run are few (block, footprint multiples,
        page), so the memo holds a handful of entries.
        """
        key = (num_bytes, code, is_write)
        cycles = self._device_cycles.get(key)
        if cycles is None:
            timing = self.timing
            row_bus_cycles = (
                timing.row_hit_bus_cycles,
                timing.row_closed_bus_cycles,
                timing.row_conflict_bus_cycles,
            )[code]
            if is_write and self.policy is RowBufferPolicy.CLOSE_PAGE:
                row_bus_cycles += timing.t_wr
            stripe_bytes = min(num_bytes, self.mapping.interleave_bytes)
            cycles = timing.to_cpu_cycles(
                row_bus_cycles + timing.burst_cycles(stripe_bytes), self.cpu_mhz
            )
            self._device_cycles[key] = cycles
        return cycles

    def access(self, address: int, num_bytes: int, is_write: bool, now: int = 0) -> DramAccessResult:
        """Perform one access of ``num_bytes`` starting at CPU cycle ``now``.

        ``num_bytes`` is the full transfer for this DRAM operation (64B for
        a block fetch, up to a page for a page fill).  Transfers larger than
        the interleave unit are striped across channels; we model the
        latency of the critical path (the widest stripe on one bank) and
        charge energy for all of it.

        The access is ``mapping.locate``, ``Bank.access``, ``Bank.reserve``
        for :meth:`device_cycles` and the energy counters' ``record_*``;
        the batch kernels (:mod:`repro.vector.kernels`) transcribe it.
        """
        if num_bytes <= 0:
            raise ValueError("num_bytes must be positive")
        if now < 0:
            raise ValueError("now must be non-negative")
        channel, bank_index, row = self.mapping.locate(address)
        bank = self._banks[channel][bank_index]
        row_access = bank.access(row)
        outcome = row_access.outcome
        cycles = self.device_cycles(num_bytes, outcome.value, is_write)
        start = bank.reserve(now, cycles)
        finish = start + cycles

        self.energy.record_row_operations(row_access.activates, row_access.precharges)
        if is_write:
            self.energy.record_write(num_bytes)
            self.bytes_written += num_bytes
        else:
            self.energy.record_read(num_bytes)
            self.bytes_read += num_bytes
        self.access_count += 1
        if outcome is RowOutcome.HIT:
            self.row_hit_count += 1

        return DramAccessResult(
            outcome=outcome,
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

    def peak_bandwidth_bytes_per_cycle(self) -> float:
        """Peak data bandwidth of all channels, in bytes per CPU cycle."""
        bytes_per_bus_cycle = self.timing.bus_width_bits / 8 * 2  # DDR: 2 beats
        return bytes_per_bus_cycle * self.channels * self.timing.bus_mhz / self.cpu_mhz

    def reset_stats(self) -> None:
        """Zero statistics and energy (keeps row-buffer/busy state)."""
        self.access_count = 0
        self.row_hit_count = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.energy.reset()
        for channel_banks in self._banks:
            for bank in channel_banks:
                bank.reset_stats()
