"""On-chip SRAM cache level in front of the DRAM cache (paper Table 3).

The pod's unified 4MB, 16-way L2 (13-cycle hit) sits between the cores
and the die-stacked cache.  The default simulator configuration feeds the
DRAM cache a *post-L2* stream directly (the workload generators are
calibrated at that level), but the full hierarchy is available for
studies that need it — e.g. replaying raw traces with short-term reuse,
or the enhanced-baseline experiment of Section 6.3 (baseline with extra
L2 capacity instead of DRAM-cache tags).  The level is write-back and
write-no-allocate: a write miss goes straight to the level below.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.caches.base import CacheAccessResult, DramCache
from repro.caches.sram_cache import SetAssociativeCache
from repro.mem.request import (
    BLOCK_SIZE,
    AccessType,
    MemoryRequest,
    _require_power_of_two,
)


@dataclass(slots=True)
class _L2Line:
    """Payload per cached block."""

    dirty: bool = False


class L2Cache:
    """Unified, set-associative, write-back/write-no-allocate SRAM cache.

    Only read misses allocate; a write hit dirties its line, and a write
    miss is forwarded below without caching anything.  Dirty victims are
    written *into the DRAM cache level* (they become the dirty evictions
    the paper discusses in Section 2), charged off the critical path.
    """

    def __init__(
        self,
        backing: DramCache,
        capacity_bytes: int = 4 * 1024 * 1024,
        associativity: int = 16,
        hit_latency: int = 13,
        block_size: int = BLOCK_SIZE,
    ) -> None:
        if capacity_bytes % (block_size * associativity):
            raise ValueError("capacity must be a whole number of sets")
        self.backing = backing
        self.capacity_bytes = capacity_bytes
        self.associativity = associativity
        self.hit_latency = hit_latency
        self.block_size = block_size
        num_sets = capacity_bytes // (block_size * associativity)
        self._lines: SetAssociativeCache[int, _L2Line] = SetAssociativeCache(
            num_sets=num_sets,
            associativity=associativity,
            set_index=lambda block: (block // block_size) % num_sets,
        )
        _require_power_of_two(block_size, "block_size")
        self._block_mask = ~(block_size - 1)
        self.reset_stats()

    @property
    def hit_ratio(self) -> float:
        """L2 hit ratio."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def access(self, request: MemoryRequest, now: int) -> CacheAccessResult:
        """Service one core request; misses recurse into the DRAM cache."""
        self.accesses += 1
        block = request.address & self._block_mask
        line = self._lines.lookup(block)
        if line is not None:
            self.hits += 1
            if request.access_type is AccessType.WRITE:
                line.dirty = True
            return CacheAccessResult(hit=True, latency=self.hit_latency)

        below = self.backing.access(request, now + self.hit_latency)
        # Write-no-allocate: a write miss caches nothing.
        eviction = None if request.is_write else self._lines.insert(block, _L2Line())
        if eviction is not None and eviction.payload.dirty:
            self.dirty_writebacks += 1
            writeback = MemoryRequest(
                address=eviction.key,
                pc=request.pc,
                access_type=AccessType.WRITE,
                core_id=request.core_id,
                instruction_count=0,
            )
            # Off the critical path; still moves data at the level below.
            self.backing.access(writeback, now + self.hit_latency)
        return CacheAccessResult(
            hit=below.hit,
            latency=self.hit_latency + below.latency,
            bypassed=below.bypassed,
            fill_blocks=below.fill_blocks,
            writeback_blocks=below.writeback_blocks,
        )

    def reset_stats(self) -> None:
        """Zero the counters (construction and end of warm-up).

        Cached contents survive.
        """
        self.accesses = 0  # requests seen
        self.hits = 0  # requests served from SRAM
        self.dirty_writebacks = 0  # dirty victims written below
