"""MissMap: the block-presence filter of the Loh-Hill design [24].

The MissMap tracks cached data at 4KB-segment granularity, storing one bit
per 64B block of the segment.  A request first consults the MissMap; only
if the bit is set does the (DRAM-resident) tag access proceed.  Evicting a
MissMap entry forces eviction of *every* cached block it covers — the
paper observes this interferes badly with regular traffic at 512MB, which
is why Table 4 grows the MissMap by 50% for that capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.caches.sram_cache import SetAssociativeCache
from repro.core.overheads import missmap_bytes
from repro.mem.request import BLOCK_SIZE, _require_power_of_two


@dataclass(slots=True)
class MissMapEntry:
    """Presence bit vector for one tracked segment."""

    present_mask: int = 0

    def block_offsets(self, blocks_per_segment: int) -> List[int]:
        """Offsets of blocks currently marked present."""
        return [i for i in range(blocks_per_segment) if self.present_mask >> i & 1]


class MissMap:
    """Set-associative presence filter over 4KB segments.

    Sized by Table 4's entry counts: 192K entries for caches up to 256MB
    and 288K for 512MB.  The design registry builds both 24-way, so the
    512MB MissMap has 50% more sets, not more ways.
    """

    def __init__(
        self,
        num_entries: int,
        associativity: int,
        segment_bytes: int = 4096,
        block_size: int = BLOCK_SIZE,
        latency_cycles: int = 9,
    ) -> None:
        if num_entries <= 0 or num_entries % associativity:
            raise ValueError(
                f"num_entries ({num_entries}) must be a positive multiple of "
                f"associativity ({associativity})"
            )
        if segment_bytes % block_size:
            raise ValueError("segment must be a whole number of blocks")
        self.segment_bytes = segment_bytes
        self.block_size = block_size
        self.blocks_per_segment = segment_bytes // block_size
        self.latency_cycles = latency_cycles
        # Segment-split constants (== page_address/page_offset with the
        # power-of-two checks hoisted to construction time).
        _require_power_of_two(segment_bytes, "segment_bytes")
        _require_power_of_two(block_size, "block_size")
        self._segment_mask = ~(segment_bytes - 1)
        self._offset_mask = segment_bytes - 1
        self._block_shift = block_size.bit_length() - 1
        num_sets = num_entries // associativity
        self._table: SetAssociativeCache[int, MissMapEntry] = SetAssociativeCache(
            num_sets=num_sets,
            associativity=associativity,
            set_index=lambda segment: (segment // segment_bytes) % num_sets,
        )
        self.forced_eviction_count = 0

    def _segment_of(self, block_address: int) -> Tuple[int, int]:
        segment = block_address & self._segment_mask
        offset = (block_address & self._offset_mask) >> self._block_shift
        return segment, offset

    def is_present(self, block_address: int) -> bool:
        """True if the MissMap believes the block is cached."""
        segment = block_address & self._segment_mask
        offset = (block_address & self._offset_mask) >> self._block_shift
        entry = self._table.lookup(segment, touch=False)
        return entry is not None and bool(entry.present_mask >> offset & 1)

    def mark_present(self, block_address: int) -> List[int]:
        """Set the presence bit for a newly filled block.

        Returns the addresses of blocks whose tracking was lost because the
        insertion evicted another MissMap entry; the cache must evict those
        blocks (the paper's forced dirty evictions).
        """
        segment, offset = self._segment_of(block_address)
        entry = self._table.lookup(segment)
        if entry is not None:
            entry.present_mask |= 1 << offset
            return []
        eviction = self._table.insert(segment, MissMapEntry(present_mask=1 << offset))
        if eviction is None:
            return []
        self.forced_eviction_count += 1
        lost_segment = eviction.key
        return [
            lost_segment + i * self.block_size
            for i in eviction.payload.block_offsets(self.blocks_per_segment)
        ]

    def mark_absent(self, block_address: int) -> None:
        """Clear the presence bit after a cache eviction."""
        segment, offset = self._segment_of(block_address)
        entry = self._table.lookup(segment, touch=False)
        if entry is None:
            return
        entry.present_mask &= ~(1 << offset)
        if entry.present_mask == 0:
            self._table.invalidate(segment)

    @property
    def tracked_segments(self) -> int:
        """Resident MissMap entries."""
        return len(self._table)

    def storage_bytes(self) -> int:
        """SRAM footprint under Table 4's MissMap model (1.95MB for 192K entries)."""
        return missmap_bytes(self._table.capacity, self.segment_bytes, self.block_size)
