"""Block-based DRAM cache: the Loh-Hill design with a MissMap [22, 24].

Data is cached in 64B blocks.  Tags live *in* the stacked DRAM, co-located
with the blocks of their set in one DRAM row (30 data blocks + 2 tag blocks
per 2KB row after the paper's coherence-bit optimisation, Section 5.2).
Every cache access therefore performs a compound DRAM operation:

    ACT row -> CAS (tags) -> 1-cycle tag match -> CAS (data) [-> CAS tags]

with the final tag-update CAS off the critical path (the paper assumes the
scheduler hides it).  A MissMap consulted before the DRAM access filters
requests for absent blocks straight to off-chip memory.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.caches.base import CacheAccessResult, DramCache
from repro.caches.missmap import MissMap
from repro.caches.sram_cache import SetAssociativeCache
from repro.dram.controller import MemoryController
from repro.mem.request import BLOCK_SIZE, AccessType, MemoryRequest


@dataclass(slots=True)
class _BlockLine:
    """Payload for one cached block."""

    dirty: bool = False


class BlockBasedCache(DramCache):
    """State-of-the-art block-based stacked DRAM cache.

    Parameters
    ----------
    capacity_bytes:
        Usable data capacity of the stacked cache.
    missmap:
        The presence filter.  Its latency is on the critical path of every
        request (hit or miss).
    row_bytes:
        Stacked DRAM row size; one row holds one set (tags + data).
    data_blocks_per_row:
        Set associativity; 30 with the paper's two-tag-block layout.
    """

    name = "block"

    def __init__(
        self,
        stacked: MemoryController,
        offchip: MemoryController,
        capacity_bytes: int,
        missmap: MissMap,
        row_bytes: int = 2048,
        data_blocks_per_row: int = 30,
        block_size: int = BLOCK_SIZE,
    ) -> None:
        super().__init__(stacked, offchip, block_size)
        if capacity_bytes <= 0 or capacity_bytes % row_bytes:
            raise ValueError("capacity must be a positive multiple of the row size")
        self.capacity_bytes = capacity_bytes
        self.row_bytes = row_bytes
        self.associativity = data_blocks_per_row
        self.num_sets = capacity_bytes // row_bytes
        self.missmap = missmap
        self._tags: SetAssociativeCache[int, _BlockLine] = SetAssociativeCache(
            num_sets=self.num_sets,
            associativity=data_blocks_per_row,
            set_index=self._set_of,
        )
        # Extra CAS for the in-DRAM tag read, in CPU cycles; the tag
        # write-back CAS is assumed off the critical path (Section 5.2).
        tag_bus_cycles = stacked.timing.t_cas + stacked.timing.burst_cycles(2 * block_size)
        self._tag_read_penalty = stacked.timing.to_cpu_cycles(tag_bus_cycles)

    def _set_of(self, block_address: int) -> int:
        return (block_address // self.block_size) % self.num_sets

    def _row_address(self, block_address: int) -> int:
        """Stacked-DRAM address of the row holding this block's set."""
        return self._set_of(block_address) * self.row_bytes

    def access(self, request: MemoryRequest, now: int) -> CacheAccessResult:
        block = request.address & self._block_mask
        is_write = request.access_type is AccessType.WRITE
        latency = self.missmap.latency_cycles
        if self.missmap.is_present(block):
            line = self._tags.lookup(block)
            if line is None:
                raise RuntimeError(
                    "MissMap claims presence for a block the tag store lost; "
                    "mark_absent was skipped somewhere"
                )
            dram = self.stacked.access(
                self._row_address(block), self.block_size, is_write, now + latency
            )
            latency += dram.latency + self._tag_read_penalty
            if is_write:
                line.dirty = True
            return self._record(CacheAccessResult(hit=True, latency=latency))

        # Miss: demand block comes from off-chip memory (critical path).
        fetch = self.offchip.access(block, self.block_size, False, now + latency)
        latency += fetch.latency
        writebacks = self._fill_block(block, is_write, now + latency)
        return self._record(
            CacheAccessResult(
                hit=False,
                latency=latency,
                fill_blocks=1,
                writeback_blocks=writebacks,
            )
        )

    def _fill_block(self, block: int, make_dirty: bool, now: int) -> int:
        """Insert ``block``; returns dirty blocks written back off-chip.

        The fill itself (a stacked-DRAM write) and any evictions are off
        the request's critical path but still occupy banks and burn energy.
        """
        writebacks = 0
        eviction = self._tags.insert(block, _BlockLine(dirty=make_dirty))
        if eviction is not None:
            writebacks += self._evict(eviction.key, eviction.payload, now)
        self.stacked.access(self._row_address(block), self.block_size, True, now)
        for lost_block in self.missmap.mark_present(block):
            line = self._tags.invalidate(lost_block)
            if line is not None:
                writebacks += self._evict(lost_block, line, now, update_missmap=False)
                self.missmap_forced_evictions += 1
        return writebacks

    def reset_stats(self) -> None:
        super().reset_stats()
        # Resident blocks purged because their MissMap segment was evicted.
        self.missmap_forced_evictions = 0

    def _evict(
        self, block: int, line: _BlockLine, now: int, update_missmap: bool = True
    ) -> int:
        """Evict one block; dirty data is read from stacked and written off-chip."""
        if update_missmap:
            self.missmap.mark_absent(block)
        if not line.dirty:
            return 0
        self.stacked.access(self._row_address(block), self.block_size, False, now)
        self.offchip.access(block, self.block_size, True, now)
        return 1
