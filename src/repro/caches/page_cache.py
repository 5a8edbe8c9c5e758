"""Page-based DRAM cache: allocate and fetch whole pages (Section 2.3).

Tags are small enough for SRAM (Table 4).  A miss fetches the entire page
from off-chip memory in a single row operation — maximum hit ratio and
DRAM locality, at the cost of up to an order of magnitude more off-chip
traffic (Fig. 5b) and internal fragmentation.

:class:`PageBasedCache` is also the skeleton of every page-organised
design: the sub-blocked cache, CHOP and the Footprint Cache subclass it
and keep its SRAM tags, its :class:`FrameAllocator` and its eviction
(:meth:`PageBasedCache._make_room`), changing only what an access
fetches and, through :meth:`PageBasedCache._on_evict`, what an eviction
feeds back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.caches.base import CacheAccessResult, DramCache
from repro.caches.sram_cache import SetAssociativeCache
from repro.bitops import popcount
from repro.dram.controller import MemoryController
from repro.mem.request import (
    BLOCK_SIZE,
    AccessType,
    MemoryRequest,
    _require_power_of_two,
)


@dataclass(slots=True)
class PageLine:
    """Metadata for one resident page."""

    frame: int
    dirty_mask: int = 0
    demanded_mask: int = 0


class FrameAllocator:
    """Assigns stacked-DRAM frames (set, way) to resident pages.

    A frame's physical address is ``(set * associativity + way) * page_size``
    so that, with page-interleaved mapping, one page occupies one DRAM row —
    the locality property both page designs rely on (Section 5.2).
    """

    def __init__(self, num_sets: int, associativity: int, page_size: int) -> None:
        self.num_sets = num_sets
        self.associativity = associativity
        self.page_size = page_size
        self._free: List[List[int]] = [
            list(range(associativity)) for _ in range(num_sets)
        ]

    def allocate(self, set_id: int) -> int:
        """Claim a free way in ``set_id``; returns the frame address."""
        free = self._free[set_id]
        if not free:
            raise LookupError(f"set {set_id} has no free ways")
        way = free.pop()
        return (set_id * self.associativity + way) * self.page_size

    def release(self, set_id: int, frame_address: int) -> None:
        """Return a frame to its set's free list."""
        way = frame_address // self.page_size - set_id * self.associativity
        if not 0 <= way < self.associativity:
            raise ValueError(f"frame {frame_address:#x} does not belong to set {set_id}")
        if way in self._free[set_id]:
            raise ValueError(f"double release of way {way} in set {set_id}")
        self._free[set_id].append(way)


class PageBasedCache(DramCache):
    """Whole-page allocate-and-fetch DRAM cache."""

    name = "page"

    def __init__(
        self,
        stacked: MemoryController,
        offchip: MemoryController,
        capacity_bytes: int,
        page_size: int = 2048,
        associativity: int = 16,
        tag_latency: int = 6,
        block_size: int = BLOCK_SIZE,
    ) -> None:
        super().__init__(stacked, offchip, block_size)
        if page_size % block_size:
            raise ValueError("page_size must be a multiple of block_size")
        if capacity_bytes % (page_size * associativity):
            raise ValueError("capacity must be a whole number of sets")
        self.capacity_bytes = capacity_bytes
        self.page_size = page_size
        self.associativity = associativity
        self.tag_latency = tag_latency
        self.blocks_per_page = page_size // block_size
        self.num_sets = capacity_bytes // (page_size * associativity)
        # Address-split constants, validated once (not per access):
        # page  = address & _page_mask
        # offset = (address & _offset_mask) >> _block_shift
        _require_power_of_two(page_size, "page_size")
        self._page_mask = ~(page_size - 1)
        self._offset_mask = page_size - 1
        self._block_shift = block_size.bit_length() - 1
        self._tags: SetAssociativeCache[int, PageLine] = SetAssociativeCache(
            num_sets=self.num_sets,
            associativity=associativity,
            set_index=self._set_of,
        )
        self._frames = FrameAllocator(self.num_sets, associativity, page_size)

    def _set_of(self, page: int) -> int:
        return (page // self.page_size) % self.num_sets

    def access(self, request: MemoryRequest, now: int) -> CacheAccessResult:
        address = request.address
        page = address & self._page_mask
        offset = (address & self._offset_mask) >> self._block_shift
        is_write = request.access_type is AccessType.WRITE
        latency = self.tag_latency
        line = self._tags.lookup(page)
        if line is not None:
            dram = self.stacked.access(
                line.frame + (offset << self._block_shift),
                self.block_size,
                is_write,
                now + latency,
            )
            latency += dram.latency
            line.demanded_mask |= 1 << offset
            if is_write:
                line.dirty_mask |= 1 << offset
            return self._record(CacheAccessResult(hit=True, latency=latency))

        # Page miss: make room, then fetch the whole page from off-chip.
        writebacks = self._make_room(page, now + latency)
        frame = self._frames.allocate(self._set_of(page))
        fetch = self.offchip.access(page, self.page_size, False, now + latency)
        # Critical-block-first: the demanded block returns before the tail
        # of the page burst; the rest of the transfer is off the critical
        # path but fully charged to bandwidth and energy.
        latency += self._critical_fetch_latency(fetch, self.page_size)
        self.stacked.access(frame, self.page_size, True, now + latency)
        new_line = PageLine(frame=frame, demanded_mask=1 << offset)
        if is_write:
            new_line.dirty_mask = 1 << offset
        if self._tags.insert(page, new_line) is not None:
            raise RuntimeError("victim should have been evicted by _make_room")
        return self._record(
            CacheAccessResult(
                hit=False,
                latency=latency,
                fill_blocks=self.blocks_per_page,
                writeback_blocks=writebacks,
            )
        )

    def _make_room(self, page: int, now: int) -> int:
        """Evict the LRU page of ``page``'s set if it is full.

        Returns the number of dirty blocks written back.  The victim is
        read out of stacked DRAM in one row operation and its dirty blocks
        go off-chip — the paper's "mostly dirty evictions" traffic.  The
        victim's entry may be any type with ``frame`` and ``dirty_mask``
        (a :class:`PageLine`, or the Footprint Cache's ``PageEntry``).
        """
        candidate = self._tags.victim_candidate(page)
        if candidate is None:
            return 0
        victim_page, line = candidate
        self._tags.invalidate(victim_page)
        self._on_evict(victim_page, line)
        dirty = popcount(line.dirty_mask)
        if dirty:
            self.stacked.access(line.frame, dirty * self.block_size, False, now)
            self.offchip.access(victim_page, dirty * self.block_size, True, now)
        self._frames.release(self._set_of(victim_page), line.frame)
        return dirty

    def _on_evict(self, page: int, line: PageLine) -> None:
        """Called by :meth:`_make_room` with each victim, before its write-back.

        The default does nothing; the Footprint Cache overrides it to
        train its FHT and account prediction accuracy.
        """

    @property
    def resident_pages(self) -> int:
        """Pages currently cached."""
        return len(self._tags)
