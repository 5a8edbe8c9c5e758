"""Page access density characterisation (paper Fig. 4).

Page density = number of demanded 64B blocks within a page during one
cache residency.  Both paths below model an LRU page cache of the target
capacity (exactly what the paper's page-based cache would retain) and
count residencies per density at eviction, as a *bincount* whose entry
``k`` is the number of residencies that demanded ``k`` blocks; pages
still resident at the end of the trace contribute their current density,
matching the paper's observation that the multiprogrammed workload's
dense pages are cache-resident.  :func:`bucket_fractions` and
:func:`mean_density` turn a bincount into Fig. 4's bars and means.

* :class:`PageDensityTracker` is the readable reference: one
  :class:`~repro.mem.request.MemoryRequest` at a time through a generic
  :class:`~repro.caches.sram_cache.SetAssociativeCache`.
* :func:`density_bincount` is the exact column kernel Fig. 4 runs: a
  NumPy pass per segment of an int64 address column computes page,
  block offset and set index, then one tight loop replays the same LRU
  sets as insertion-ordered dicts (a touch pops and re-inserts the page,
  the victim is the first key).  Every residency is recorded exactly
  once, at eviction or at the end, so its bincount equals the
  tracker's entry for entry; ``tests/test_analysis.py`` pins that on
  every workload and capacity of Fig. 4.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.caches.sram_cache import SetAssociativeCache
from repro.bitops import popcount
from repro.mem.request import MemoryRequest

DENSITY_BUCKETS: Tuple[Tuple[int, int, str], ...] = (
    (1, 1, "1 Block"),
    (2, 3, "2-3 Blocks"),
    (4, 7, "4-7 Blocks"),
    (8, 15, "8-15 Blocks"),
    (16, 31, "16-31 Blocks"),
    (32, 32, "32 Blocks"),
)
"""Fig. 4's legend buckets for 2KB pages (32 blocks)."""

#: Requests per NumPy pass of :func:`density_bincount`.  Small segments
#: keep the per-request Python lists short-lived (a whole 160k-request
#: column as lists would cost several MB per capacity).
SEGMENT_REQUESTS = 4096


def _num_sets(capacity_bytes: int, page_size: int, associativity: int) -> int:
    if capacity_bytes <= 0 or capacity_bytes % (page_size * associativity):
        raise ValueError("capacity must be a whole number of sets")
    return capacity_bytes // (page_size * associativity)


def bucket_fractions(bincount: Sequence[int]) -> Dict[str, float]:
    """Fraction of a bincount's residencies per Fig. 4 bucket.

    Every fraction is 0.0 for a bincount with no residencies.
    """
    total = sum(bincount)
    return {
        label: sum(bincount[low:high + 1]) / total if total else 0.0
        for low, high, label in DENSITY_BUCKETS
    }


def mean_density(bincount: Sequence[int]) -> float:
    """Mean demanded blocks per residency (0.0 for no residencies)."""
    total = sum(bincount)
    if total == 0:
        return 0.0
    return sum(blocks * count for blocks, count in enumerate(bincount)) / total


class PageDensityTracker:
    """LRU page cache that counts residencies per density at eviction."""

    def __init__(
        self,
        capacity_bytes: int,
        page_size: int = 2048,
        associativity: int = 16,
        block_size: int = 64,
    ) -> None:
        num_sets = _num_sets(capacity_bytes, page_size, associativity)
        self.page_size = page_size
        self.block_size = block_size
        self.blocks_per_page = page_size // block_size
        self._pages: SetAssociativeCache[int, int] = SetAssociativeCache(
            num_sets=num_sets,
            associativity=associativity,
            set_index=lambda page: (page // page_size) % num_sets,
        )
        self.bincount: List[int] = [0] * (self.blocks_per_page + 1)

    def observe(self, request: MemoryRequest) -> None:
        """Fold one request into the residency tracking."""
        page = request.page_address(self.page_size)
        offset = request.block_index_in_page(self.page_size, self.block_size)
        mask = self._pages.lookup(page)
        if mask is None:
            eviction = self._pages.insert(page, 1 << offset)
            if eviction is not None:
                self.bincount[popcount(eviction.payload)] += 1
        else:
            self._pages.insert(page, mask | 1 << offset)

    def finish(self) -> List[int]:
        """Flush resident pages into the bincount and return it.

        Flushed pages leave the cache, so calling this again records
        nothing twice.
        """
        for page, mask in list(self._pages.items()):
            self._pages.invalidate(page)
            self.bincount[popcount(mask)] += 1
        return self.bincount

    def bucket_fractions(self) -> Dict[str, float]:
        """Fractions per Fig. 4 bucket (call after :meth:`finish`)."""
        return bucket_fractions(self.bincount)


def page_density_profile(
    requests: Iterable[MemoryRequest],
    capacity_bytes: int,
    page_size: int = 2048,
) -> Dict[str, float]:
    """One Fig. 4 bar: density-bucket fractions for a trace and capacity."""
    tracker = PageDensityTracker(capacity_bytes, page_size=page_size)
    for request in requests:
        tracker.observe(request)
    return bucket_fractions(tracker.finish())


def density_bincount(
    addresses,
    capacity_bytes: int,
    page_size: int = 2048,
    associativity: int = 16,
    block_size: int = 64,
) -> Tuple[int, ...]:
    """Residencies per demanded-block count over an address column.

    Entry ``k`` of the result counts the page residencies that demanded
    ``k`` distinct blocks (entry 0 is always 0).  The counts equal
    :class:`PageDensityTracker`'s bincount for the same requests and
    geometry.
    """
    num_sets = _num_sets(capacity_bytes, page_size, associativity)
    if page_size & (page_size - 1) or block_size & (block_size - 1):
        raise ValueError("page_size and block_size must be powers of two")
    blocks_per_page = page_size // block_size
    bits = [1 << offset for offset in range(blocks_per_page)]
    sets = [{} for _ in range(num_sets)]
    bincount = [0] * (blocks_per_page + 1)
    column = np.asarray(addresses, dtype=np.int64)
    for start in range(0, len(column), SEGMENT_REQUESTS):
        segment = column[start:start + SEGMENT_REQUESTS]
        pages = segment // page_size
        offsets = segment % page_size // block_size
        set_ids = pages % num_sets
        for page, offset, set_id in zip(
            pages.tolist(), offsets.tolist(), set_ids.tolist()
        ):
            resident = sets[set_id]
            mask = resident.pop(page, None)
            if mask is None:
                if len(resident) >= associativity:
                    bincount[resident.pop(next(iter(resident))).bit_count()] += 1
                resident[page] = bits[offset]
            else:
                resident[page] = mask | bits[offset]
    for resident in sets:
        for mask in resident.values():
            bincount[mask.bit_count()] += 1
    return tuple(bincount)
