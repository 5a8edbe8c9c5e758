"""Footprint Cache — the paper's contribution (Sections 3 and 4).

Page-granularity allocation, block-granularity fetch.  On a page miss
(the *triggering miss*) the FHT is queried with the PC & offset of the
missing request; the predicted footprint is fetched from off-chip memory
in one burst while the demand block is forwarded critical-block-first.
Demanded blocks missing from a resident page (underpredictions) are
fetched individually.  Pages predicted to be singletons bypass the cache
entirely, tracked by the Singleton Table.  At eviction the demanded bit
vector — generated for free by the Table 2 encoding — updates the FHT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.caches.base import CacheAccessResult
from repro.bitops import popcount as _popcount
from repro.caches.page_cache import PageBasedCache
from repro.core.block_state import PageBlockBits
from repro.core.footprint_predictor import FootprintHistoryTable, PredictorKey, PredictorStats
from repro.core.overheads import footprint_tag_bytes
from repro.core.singleton_table import SingletonTable
from repro.dram.controller import MemoryController
from repro.mem.request import BLOCK_SIZE, AccessType, MemoryRequest


@dataclass(slots=True)
class PageEntry:
    """Tag-array entry for one resident page (Fig. 3).

    Besides the frame it carries the dirty/valid bit vectors of Table 2,
    the predicted footprint (for accuracy accounting), and the pointer
    into the FHT used for eviction feedback.
    """

    frame: int
    blocks: PageBlockBits
    fht_key: PredictorKey
    predicted_mask: int

    @property
    def demanded_mask(self) -> int:
        """The footprint generated so far (fed back to the FHT)."""
        return self.blocks.demanded_mask

    @property
    def dirty_mask(self) -> int:
        """Blocks needing write-back at eviction."""
        return self.blocks.dirty_mask


class FootprintCache(PageBasedCache):
    """Die-stacked DRAM cache with footprint prediction.

    A page-based cache whose tags hold :class:`PageEntry` records: it
    shares the parent's tags, frames and eviction, and differs in what a
    miss fetches and in the FHT feedback of :meth:`_on_evict`.

    Parameters
    ----------
    capacity_bytes:
        Stacked cache capacity.
    page_size:
        Allocation unit; the paper uses 2KB (matching the DRAM row).
    fht:
        The Footprint History Table (defaults to the paper's 16K entries).
    singleton_table:
        The Singleton Table; pass None (with
        ``singleton_optimization=False``) to disable the Section 4.4
        capacity optimisation — the paper's §6.5 ablation.
    tag_latency:
        SRAM tag lookup latency in cycles (Table 4).
    """

    name = "footprint"

    def __init__(
        self,
        stacked: MemoryController,
        offchip: MemoryController,
        capacity_bytes: int,
        page_size: int = 2048,
        associativity: int = 16,
        tag_latency: int = 9,
        fht: Optional[FootprintHistoryTable] = None,
        singleton_table: Optional[SingletonTable] = None,
        singleton_optimization: bool = True,
        block_size: int = BLOCK_SIZE,
    ) -> None:
        super().__init__(
            stacked,
            offchip,
            capacity_bytes,
            page_size=page_size,
            associativity=associativity,
            tag_latency=tag_latency,
            block_size=block_size,
        )
        self.fht = fht or FootprintHistoryTable(blocks_per_page=self.blocks_per_page)
        if self.fht.blocks_per_page != self.blocks_per_page:
            raise ValueError(
                f"FHT sized for {self.fht.blocks_per_page} blocks/page but the "
                f"cache has {self.blocks_per_page}"
            )
        self.singleton_optimization = singleton_optimization
        self.singleton_table = singleton_table or (
            SingletonTable() if singleton_optimization else None
        )

    # ------------------------------------------------------------------
    # Access flow
    # ------------------------------------------------------------------
    def access(self, request: MemoryRequest, now: int) -> CacheAccessResult:
        address = request.address
        page = address & self._page_mask
        offset = (address & self._offset_mask) >> self._block_shift
        latency = self.tag_latency
        entry = self._tags.lookup(page)

        if entry is not None:
            blocks = entry.blocks
            # Present check == blocks.state_of(offset).is_present, without
            # constructing the BlockState enum member on the hot path.
            if (blocks.high_mask | blocks.low_mask) >> offset & 1:
                return self._record(self._hit(entry, offset, request, now, latency))
            return self._record(
                self._underprediction_miss(entry, offset, request, now, latency)
            )
        return self._record(self._page_miss(page, offset, request, now, latency))

    def _hit(
        self,
        entry: PageEntry,
        offset: int,
        request: MemoryRequest,
        now: int,
        latency: int,
    ) -> CacheAccessResult:
        """Demanded block is resident: serve from stacked DRAM."""
        is_write = request.access_type is AccessType.WRITE
        dram = self.stacked.access(
            entry.frame + (offset << self._block_shift),
            self.block_size,
            is_write,
            now + latency,
        )
        entry.blocks.mark_demanded(offset, dirty=is_write)
        return CacheAccessResult(hit=True, latency=latency + dram.latency)

    def _underprediction_miss(
        self,
        entry: PageEntry,
        offset: int,
        request: MemoryRequest,
        now: int,
        latency: int,
    ) -> CacheAccessResult:
        """Page resident but block absent: fetch the single block.

        This is the cost of an underprediction (Section 3.1): a full
        off-chip round trip, exactly as in a sub-blocked cache.
        """
        self.underprediction_misses += 1
        fetch = self.offchip.access(
            request.address & self._block_mask, self.block_size, False, now + latency
        )
        latency += fetch.latency
        self.stacked.access(
            entry.frame + (offset << self._block_shift),
            self.block_size,
            True,
            now + latency,
        )
        entry.blocks.mark_demanded(
            offset, dirty=request.access_type is AccessType.WRITE
        )
        return CacheAccessResult(hit=False, latency=latency, fill_blocks=1)

    def _page_miss(
        self,
        page: int,
        offset: int,
        request: MemoryRequest,
        now: int,
        latency: int,
    ) -> CacheAccessResult:
        """Triggering miss: consult ST, then FHT, then allocate and fetch."""
        pc = request.pc
        if self.singleton_table is not None:
            st_entry = self.singleton_table.lookup(page)
            if st_entry is not None:
                if st_entry.offset != offset or st_entry.pc != pc:
                    # Second access to a page classified singleton: it was
                    # an underprediction.  Allocate it with the original
                    # PC & offset found in the ST (Section 4.4).
                    self.singleton_table.on_second_access(page)
                    self.singleton_corrections += 1
                    return self._allocate_and_fetch(
                        page,
                        offset,
                        request,
                        now,
                        latency,
                        fht_key=(st_entry.pc, st_entry.offset),
                        predicted_mask=1 << st_entry.offset | 1 << offset,
                    )
                # Same PC & offset touching the same bypassed page again:
                # serve it off-chip once more and keep the classification.
                return self._bypass(page, offset, pc, request, now, latency, rerecord=False)

        predicted = self.fht.predict(pc, offset)
        if predicted is None:
            # Cold (pc, offset): allocate an FHT entry predicting just the
            # triggering block, and allocate the page with only that block.
            self.fht.allocate(pc, offset)
            return self._allocate_and_fetch(
                page, offset, request, now, latency,
                fht_key=(pc, offset),
                predicted_mask=1 << offset,
            )

        if (
            self.singleton_optimization
            and self.singleton_table is not None
            and _popcount(predicted) == 1
        ):
            return self._bypass(page, offset, pc, request, now, latency, rerecord=True)

        return self._allocate_and_fetch(
            page, offset, request, now, latency,
            fht_key=(pc, offset),
            predicted_mask=predicted | 1 << offset,
        )

    def _bypass(
        self,
        page: int,
        offset: int,
        pc: int,
        request: MemoryRequest,
        now: int,
        latency: int,
        rerecord: bool,
    ) -> CacheAccessResult:
        """Serve a predicted-singleton block off-chip without allocating."""
        is_write = request.access_type is AccessType.WRITE
        fetch = self.offchip.access(
            request.address & self._block_mask,
            self.block_size,
            is_write,
            now + latency,
        )
        if rerecord and self.singleton_table is not None:
            self.singleton_table.record_bypass(page, pc, offset)
        return CacheAccessResult(
            hit=False,
            latency=latency + fetch.latency,
            bypassed=True,
            # A bypassed read fetches one block; a bypassed write is
            # forwarded off-chip without fetching anything.
            fill_blocks=0 if is_write else 1,
        )

    def _allocate_and_fetch(
        self,
        page: int,
        offset: int,
        request: MemoryRequest,
        now: int,
        latency: int,
        fht_key,
        predicted_mask: int,
    ) -> CacheAccessResult:
        """Evict a victim if needed, then fetch the predicted footprint."""
        writebacks = self._make_room(page, now + latency)
        entry = PageEntry(
            frame=self._frames.allocate(self._set_of(page)),
            blocks=PageBlockBits(self.blocks_per_page),
            fht_key=fht_key,
            predicted_mask=predicted_mask,
        )
        self._tags.insert(page, entry)

        fetch_blocks = _popcount(predicted_mask)
        fetch_bytes = fetch_blocks * self.block_size
        fetch = self.offchip.access(page, fetch_bytes, False, now + latency)
        # Critical-block-first: the demand block returns ahead of the rest
        # of the footprint burst.
        latency += self._critical_fetch_latency(fetch, fetch_bytes)
        self.stacked.access(entry.frame, fetch_bytes, True, now + latency)

        entry.blocks.install_prefetched(predicted_mask)
        entry.blocks.mark_demanded(offset, dirty=request.is_write)
        return CacheAccessResult(
            hit=False,
            latency=latency,
            fill_blocks=fetch_blocks,
            writeback_blocks=writebacks,
        )

    # ------------------------------------------------------------------
    # Eviction feedback
    # ------------------------------------------------------------------
    def _on_evict(self, page: int, entry: PageEntry) -> None:
        """Footprint feedback for the page :meth:`_make_room` evicts.

        The demanded bit vector updates the FHT through the stored
        pointer, and the residency joins the Fig. 8 accuracy accounting.
        """
        demanded = entry.demanded_mask
        pc, trigger_offset = entry.fht_key
        self.fht.update(pc, trigger_offset, demanded)
        predicted = entry.predicted_mask
        self.predictor_stats.covered_blocks += _popcount(demanded & predicted)
        self.predictor_stats.underpredicted_blocks += _popcount(demanded & ~predicted)
        self.predictor_stats.overpredicted_blocks += _popcount(predicted & ~demanded)

    def reset_stats(self) -> None:
        """Zero the counters and accuracy accounting, keep learned state.

        The FHT and ST contents persist (they are warmed microarchitectural
        state, like the cache itself); only the measurement counters reset.
        """
        super().reset_stats()
        # Demanded blocks absent from a resident page (Section 3.1).
        self.underprediction_misses = 0
        # Second accesses that reclassified a bypassed singleton page.
        self.singleton_corrections = 0
        self.predictor_stats = PredictorStats()

    def storage_bytes(self) -> int:
        """Total SRAM metadata: tags (Table 4's Footprint row) + FHT + ST."""
        total = footprint_tag_bytes(
            self.capacity_bytes, self.page_size, self.associativity, self.block_size
        )
        total += self.fht.storage_bytes()
        if self.singleton_table is not None:
            total += self.singleton_table.storage_bytes()
        return total
