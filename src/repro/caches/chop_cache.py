"""CHOP-style hot-page filter cache (Jiang et al. [13], paper Section 6.7).

CHOP allocates only pages predicted to be *hot* — pages whose access
history puts them among the topmost contributors to total accesses.  A
filter table counts touches per page; once a page's count crosses the
hotness threshold it is cached at full-page granularity, otherwise its
blocks are served straight from off-chip memory.

The paper finds the approach ineffective for scale-out workloads: their
vast datasets form no well-defined hot set, so even an ideal 1GB cache is
needed to cover 80% of accesses (Fig. 12).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.caches.base import CacheAccessResult
from repro.caches.page_cache import PageBasedCache
from repro.caches.sram_cache import SetAssociativeCache
from repro.dram.controller import MemoryController
from repro.mem.request import BLOCK_SIZE, AccessType, MemoryRequest


@dataclass(slots=True)
class _FilterEntry:
    """Access counter for one candidate page."""

    count: int = 0


class ChopCache(PageBasedCache):
    """Page-based cache gated by a hot-page filter.

    Parameters
    ----------
    hot_threshold:
        Accesses a page must accumulate in the filter before it is
        considered hot and allocated.
    filter_entries:
        Capacity of the filter table; LRU-managed, so a page must stay
        popular long enough to get hot (CHOP-FC organisation).
    """

    name = "chop"

    def __init__(
        self,
        stacked: MemoryController,
        offchip: MemoryController,
        capacity_bytes: int,
        page_size: int = 4096,
        associativity: int = 16,
        tag_latency: int = 6,
        hot_threshold: int = 4,
        filter_entries: int = 16384,
        filter_associativity: int = 16,
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
        if hot_threshold < 1:
            raise ValueError("hot_threshold must be at least 1")
        if filter_entries % filter_associativity:
            raise ValueError("filter_entries must be a multiple of its associativity")
        self.hot_threshold = hot_threshold
        self._filter: SetAssociativeCache[int, _FilterEntry] = SetAssociativeCache(
            num_sets=filter_entries // filter_associativity,
            associativity=filter_associativity,
            set_index=lambda page: (page // page_size) % (filter_entries // filter_associativity),
        )

    def _is_hot(self, page: int) -> bool:
        """Bump the page's filter counter; True once it crosses the threshold."""
        entry = self._filter.lookup(page)
        if entry is None:
            self._filter.insert(page, _FilterEntry(count=1))
            return self.hot_threshold <= 1
        entry.count += 1
        return entry.count >= self.hot_threshold

    def access(self, request: MemoryRequest, now: int) -> CacheAccessResult:
        address = request.address
        page = address & self._page_mask
        # A resident page, or one the filter bump makes hot, takes the
        # parent page-based design's hit or whole-page miss path (which
        # touches the page's LRU position once).
        if self._tags.lookup(page, touch=False) is not None or self._is_hot(page):
            return super().access(request, now)

        # Cold page: serve the block off-chip, bypassing the cache.
        is_write = request.access_type is AccessType.WRITE
        fetch = self.offchip.access(
            address & self._block_mask,
            self.block_size,
            is_write,
            now + self.tag_latency,
        )
        return self._record(
            CacheAccessResult(
                hit=False,
                latency=self.tag_latency + fetch.latency,
                bypassed=True,
                fill_blocks=0 if is_write else 1,
            )
        )
