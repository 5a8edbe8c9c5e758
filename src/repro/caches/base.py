"""Common interface of all die-stacked DRAM cache designs.

Every design receives the stream of L2 misses (the requests that reach the
DRAM cache level), consults its metadata, moves data between the stacked
DRAM and off-chip DRAM through the two memory controllers, and reports the
latency each request observed.  The controllers accumulate traffic and
energy, so Figs. 5b, 10 and 11 fall out of the same run as Fig. 5a.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.dram.controller import MemoryController
from repro.mem.request import (
    BLOCK_SIZE,
    AccessType,
    MemoryRequest,
    _require_power_of_two,
)


@dataclass(slots=True)
class CacheAccessResult:
    """Outcome of one request at the DRAM cache level.

    One result is created per simulated request (the hottest allocation
    in the repo), so the class is a ``__slots__`` dataclass: no per
    instance ``__dict__``, and a plain generated ``__init__``.  Treat
    instances as immutable — they are shared bookkeeping records, not
    mutable state.

    Attributes
    ----------
    hit:
        True if the demanded block was served from the stacked DRAM.
    latency:
        Cycles from request arrival to data return, including tag lookup,
        DRAM queueing, and (on a miss) the off-chip round trip.
    bypassed:
        True if the request was served off-chip *by design* (e.g. singleton
        bypass in Footprint Cache) rather than as an allocation miss.
    fill_blocks:
        Blocks fetched from off-chip memory because of this request
        (demand block + prefetched footprint / page remainder).
    writeback_blocks:
        Dirty blocks written back off-chip because of this request.
    """

    hit: bool
    latency: int
    bypassed: bool = False
    fill_blocks: int = 0
    writeback_blocks: int = 0


class DramCache(abc.ABC):
    """Abstract die-stacked DRAM cache.

    Concrete designs implement :meth:`access`; the shared bookkeeping here
    (hit/miss counters, traffic attribution) keeps the designs comparable.
    The counters are plain ``int`` attributes, like the controllers',
    named once in :meth:`reset_stats`.
    """

    name = "abstract"

    def __init__(
        self,
        stacked: MemoryController,
        offchip: MemoryController,
        block_size: int = BLOCK_SIZE,
    ) -> None:
        self.stacked = stacked
        self.offchip = offchip
        self.block_size = block_size
        # Address-split constants, validated once here instead of per
        # access: ``address & _block_mask`` is ``block_address(address)``.
        _require_power_of_two(block_size, "block_size")
        self._block_mask = ~(block_size - 1)
        self.reset_stats()

    @abc.abstractmethod
    def access(self, request: MemoryRequest, now: int) -> CacheAccessResult:
        """Service ``request`` arriving at CPU cycle ``now``."""

    @property
    def misses(self) -> int:
        """Requests that needed off-chip data."""
        return self.accesses - self.hits

    @property
    def miss_ratio(self) -> float:
        """Miss ratio as plotted in Fig. 5a."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    @property
    def hit_ratio(self) -> float:
        """1 - miss ratio."""
        return 1.0 - self.miss_ratio

    def _burst_tail(self, total_bytes: int) -> int:
        """CPU cycles an off-chip fetch of ``total_bytes`` bursts after its first block.

        The tail is bounded by what the controller actually bursts on one
        bank (one interleave stripe).  The batch kernels memoise it per
        fetch size.
        """
        timing = self.offchip.timing
        stripe = min(total_bytes, self.offchip.mapping.interleave_bytes)
        tail_bus_cycles = timing.burst_cycles(stripe) - timing.burst_cycles(self.block_size)
        return timing.to_cpu_cycles(max(0, tail_bus_cycles))

    def _critical_fetch_latency(self, fetch, total_bytes: int) -> int:
        """Latency until the *demand block* of a multi-block fetch returns.

        Page-organised designs fetch several blocks in one burst but
        forward the demanded block critical-block-first; the burst tail is
        off the critical path.
        """
        return fetch.latency - self._burst_tail(total_bytes)

    def _record(self, result: CacheAccessResult) -> CacheAccessResult:
        """Fold one access result into the five shared counters."""
        self.accesses += 1
        if result.hit:
            self.hits += 1
        if result.bypassed:
            self.bypasses += 1
        self.fill_blocks += result.fill_blocks
        self.writeback_blocks += result.writeback_blocks
        return result

    def reset_stats(self) -> None:
        """Zero this design's counters (construction and end of warm-up).

        ``__init__`` calls this before a subclass's own ``__init__`` body
        runs, so an override may only assign counters (and must call
        ``super().reset_stats()``); cached contents are never touched.
        """
        self.accesses = 0  # requests seen
        self.hits = 0  # requests served from stacked DRAM
        self.bypasses = 0  # requests served off-chip by design
        self.fill_blocks = 0  # blocks fetched from off-chip memory
        self.writeback_blocks = 0  # dirty blocks written back off-chip


class BaselineMemory(DramCache):
    """The paper's baseline: no DRAM cache, every request goes off-chip.

    Implemented as a degenerate :class:`DramCache` so the simulator and
    benches can treat the baseline uniformly.
    """

    name = "baseline"

    def access(self, request: MemoryRequest, now: int) -> CacheAccessResult:
        is_write = request.access_type is AccessType.WRITE
        dram = self.offchip.access(
            request.address & self._block_mask,
            self.block_size,
            is_write,
            now,
        )
        return self._record(
            CacheAccessResult(
                hit=False,
                latency=dram.latency,
                fill_blocks=0 if is_write else 1,
            )
        )
