"""Footprint Cache tag array (Fig. 3).

A set-associative SRAM structure; (set, way) directly determines the
physical address of the page in stacked DRAM.  Each entry carries the
page tag, LRU state, a page-level valid bit, the dirty/valid bit vectors
of Table 2, the predicted footprint (for accuracy accounting), and the
pointer into the FHT used for eviction feedback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple

from repro.caches.page_cache import FrameAllocator
from repro.caches.sram_cache import SetAssociativeCache
from repro.core.block_state import PageBlockBits
from repro.core.footprint_predictor import PredictorKey


@dataclass(slots=True)
class PageEntry:
    """Tag-array entry for one resident page."""

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


class FootprintTagArray:
    """SRAM tags + frame allocation for the Footprint Cache."""

    def __init__(
        self,
        capacity_bytes: int,
        page_size: int = 2048,
        associativity: int = 16,
        block_size: int = 64,
    ) -> None:
        if page_size % block_size:
            raise ValueError("page_size must be a multiple of block_size")
        if capacity_bytes % (page_size * associativity):
            raise ValueError("capacity must be a whole number of sets")
        self.capacity_bytes = capacity_bytes
        self.page_size = page_size
        self.block_size = block_size
        self.associativity = associativity
        self.blocks_per_page = page_size // block_size
        self.num_sets = capacity_bytes // (page_size * associativity)
        self._tags: SetAssociativeCache[int, PageEntry] = SetAssociativeCache(
            num_sets=self.num_sets,
            associativity=associativity,
            set_index=self.set_of,
        )
        self._frames = FrameAllocator(self.num_sets, associativity, page_size)

    def set_of(self, page: int) -> int:
        """Set index of a page address."""
        return (page // self.page_size) % self.num_sets

    def lookup(self, page: int) -> Optional[PageEntry]:
        """Resident entry for ``page`` (touches LRU), or None."""
        return self._tags.lookup(page)

    def needs_eviction(self, page: int) -> Optional[Tuple[int, PageEntry]]:
        """Victim that must leave before ``page`` can be allocated."""
        return self._tags.victim_candidate(page)

    def evict(self, page: int) -> PageEntry:
        """Remove ``page``, release its frame, and return its entry."""
        entry = self._tags.invalidate(page)
        if entry is None:
            raise KeyError(f"evicting non-resident page {page:#x}")
        self._frames.release(self.set_of(page), entry.frame)
        return entry

    def allocate(
        self,
        page: int,
        fht_key: PredictorKey,
        predicted_mask: int,
    ) -> PageEntry:
        """Install ``page``; its set must have a free way.

        Callers evict the victim reported by :meth:`needs_eviction` first —
        eviction has side effects (write-backs, FHT feedback) that belong
        to the cache, not the tag array.
        """
        if self._tags.victim_candidate(page) is not None:
            raise RuntimeError(
                f"allocating page {page:#x} into a full set; evict first"
            )
        frame = self._frames.allocate(self.set_of(page))
        entry = PageEntry(
            frame=frame,
            blocks=PageBlockBits(self.blocks_per_page),
            fht_key=fht_key,
            predicted_mask=predicted_mask,
        )
        self._tags.insert(page, entry)
        return entry

    def entries(self) -> Iterator[Tuple[int, PageEntry]]:
        """All resident (page, entry) pairs."""
        return self._tags.items()

    @property
    def resident_pages(self) -> int:
        """Pages currently allocated."""
        return len(self._tags)

    def storage_bytes(self) -> int:
        """SRAM cost of the tag array (reproduces Table 4's Footprint row).

        Per entry: page tag (40-bit physical addresses), page-valid bit,
        LRU state, two bit vectors, and a 14-bit FHT pointer.
        """
        num_pages = self.capacity_bytes // self.page_size
        offset_bits = (self.page_size - 1).bit_length()
        index_bits = (self.num_sets - 1).bit_length() if self.num_sets > 1 else 0
        tag_bits = 40 - offset_bits - index_bits
        lru_bits = max(1, (self.associativity - 1).bit_length())
        bits_per_entry = tag_bits + 1 + lru_bits + 2 * self.blocks_per_page + 14
        return num_pages * bits_per_entry // 8
