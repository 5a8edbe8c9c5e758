"""Singleton Table (ST) — the capacity optimisation of Section 4.4.

When the FHT predicts a single-block footprint, the page is a *singleton*:
more than a quarter of pages on average, 95% of which are never reused in
the DRAM cache (Section 3.2).  Footprint Cache does not allocate such
pages; the demanded block bypasses the cache.  The ST records the bypass
(page tag, PC, offset) so that a *second* access to the page — an
underprediction of singleton-ness — can allocate the page normally and
correct the FHT, keeping singleton classification adaptive.

Geometry follows the paper: 512 entries, ~3KB of SRAM, partitioned and
co-located with the tag tiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.caches.sram_cache import SetAssociativeCache


@dataclass(frozen=True)
class SingletonEntry:
    """One bypassed page: the PC & offset that predicted it singleton."""

    pc: int
    offset: int


class SingletonTable:
    """Set-associative table of recently bypassed singleton pages."""

    def __init__(self, num_entries: int = 512, associativity: int = 8) -> None:
        if num_entries <= 0 or num_entries % associativity:
            raise ValueError(
                f"num_entries ({num_entries}) must be a positive multiple of "
                f"associativity ({associativity})"
            )
        self.num_entries = num_entries
        self.associativity = associativity
        num_sets = num_entries // associativity
        self._table: SetAssociativeCache[int, SingletonEntry] = SetAssociativeCache(
            num_sets=num_sets,
            associativity=associativity,
            set_index=lambda page: page % num_sets,
        )
        self.recorded = 0
        self.second_access_hits = 0

    def record_bypass(self, page: int, pc: int, offset: int) -> None:
        """Remember that ``page`` was bypassed as a predicted singleton."""
        self._table.insert(page, SingletonEntry(pc=pc, offset=offset))
        self.recorded += 1

    def lookup(self, page: int) -> Optional[SingletonEntry]:
        """The ST is indexed by page tag, and only upon a page miss."""
        return self._table.lookup(page, touch=False)

    def on_second_access(self, page: int) -> Optional[SingletonEntry]:
        """Consume the entry for a page that was accessed again.

        Returns the stored PC & offset (the information needed to allocate
        the page and its FHT pointer, Section 4.4) and invalidates the
        entry, or None if the page is not tracked.
        """
        entry = self._table.invalidate(page)
        if entry is not None:
            self.second_access_hits += 1
        return entry

    @property
    def resident_entries(self) -> int:
        """Pages currently tracked."""
        return len(self._table)

    def storage_bytes(self) -> int:
        """SRAM footprint (~3KB for 512 entries): page tag + PC + offset."""
        bits_per_entry = 28 + 16 + 5  # page tag, hashed PC, offset
        return self.num_entries * bits_per_entry // 8
