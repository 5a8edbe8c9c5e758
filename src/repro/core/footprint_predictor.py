"""Footprint History Table (FHT) — Section 4.2 and Fig. 3.

The FHT is a set-associative SRAM structure indexed by a hash of the
``PC & offset`` pair of the instruction that triggered a page miss.  Each
entry tags the pair and stores the predicted footprint as a bit vector.
It is updated on every page eviction with the footprint observed during
that residency, keeping predictions "in harmony with the workload's
execution phase".

The default geometry follows the paper: 16K entries (~144KB of SRAM for
2KB pages), which Fig. 9 shows to be past the knee of the hit-ratio curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.caches.sram_cache import SetAssociativeCache

PredictorKey = Tuple[int, int]
"""(pc, offset) pair identifying the triggering instruction and block."""


@dataclass
class PredictorStats:
    """Aggregate coverage/under/overprediction accounting (Fig. 8).

    Fractions are relative to the total number of *demanded* blocks, which
    is how the paper plots predictor accuracy (covered + underpredicted
    sums to 100%; overpredictions stack on top).
    """

    covered_blocks: int = 0
    underpredicted_blocks: int = 0
    overpredicted_blocks: int = 0

    @property
    def demanded_blocks(self) -> int:
        """All blocks cores requested."""
        return self.covered_blocks + self.underpredicted_blocks

    @property
    def coverage(self) -> float:
        """Fraction of demanded blocks that were prefetched in time."""
        if self.demanded_blocks == 0:
            return 0.0
        return self.covered_blocks / self.demanded_blocks

    @property
    def underprediction_rate(self) -> float:
        """Fraction of demanded blocks the predictor missed."""
        if self.demanded_blocks == 0:
            return 0.0
        return self.underpredicted_blocks / self.demanded_blocks

    @property
    def overprediction_rate(self) -> float:
        """Fetched-but-unused blocks, relative to demanded blocks."""
        if self.demanded_blocks == 0:
            return 0.0
        return self.overpredicted_blocks / self.demanded_blocks


@dataclass
class _FhtEntry:
    """Stored footprint for one (pc, offset) key."""

    footprint_mask: int


INDEX_MODES = ("pc_offset", "pc", "offset")
"""Supported history indexings (Section 3.1).

``pc_offset`` is the paper's design: the PC of the triggering instruction
combined with the block offset within the page, which tolerates varying
data-structure alignment.  ``pc`` and ``offset`` are the ablations the
paper argues against (and prior work [34] studies in depth).
"""


class FootprintHistoryTable:
    """Set-associative footprint history, indexed by ``PC & offset``."""

    def __init__(
        self,
        num_entries: int = 16384,
        associativity: int = 16,
        blocks_per_page: int = 32,
        index_mode: str = "pc_offset",
    ) -> None:
        if index_mode not in INDEX_MODES:
            raise ValueError(
                f"unknown index_mode {index_mode!r}; one of {INDEX_MODES}"
            )
        self.index_mode = index_mode
        if num_entries <= 0 or num_entries % associativity:
            raise ValueError(
                f"num_entries ({num_entries}) must be a positive multiple of "
                f"associativity ({associativity})"
            )
        if blocks_per_page <= 0:
            raise ValueError("blocks_per_page must be positive")
        self.num_entries = num_entries
        self.associativity = associativity
        self.blocks_per_page = blocks_per_page
        num_sets = num_entries // associativity
        self._table: SetAssociativeCache[PredictorKey, _FhtEntry] = SetAssociativeCache(
            num_sets=num_sets,
            associativity=associativity,
            set_index=lambda key: self._hash(key) % num_sets,
        )
        self.lookups = 0
        self.hits = 0
        self.updates = 0
        self.stale_updates = 0

    @staticmethod
    def _hash(key: PredictorKey) -> int:
        pc, offset = key
        return (pc * 0x9E3779B1 ^ offset * 0x85EBCA77) & 0x7FFFFFFF

    def _key(self, pc: int, offset: int) -> PredictorKey:
        """Reduce (pc, offset) to the configured history key."""
        if self.index_mode == "pc":
            return (pc, 0)
        if self.index_mode == "offset":
            return (0, offset)
        return (pc, offset)

    def _check_mask(self, mask: int) -> None:
        if mask < 0 or mask >> self.blocks_per_page:
            raise ValueError(
                f"footprint mask {mask:#x} has bits outside "
                f"{self.blocks_per_page} blocks"
            )

    def predict(self, pc: int, offset: int) -> Optional[int]:
        """Predicted footprint mask for a triggering miss, or None.

        None means the pair has never been seen (cold miss at program
        start, Section 4.2); the caller should allocate an entry with
        :meth:`allocate`.
        """
        self.lookups += 1
        entry = self._table.lookup(self._key(pc, offset))
        if entry is None:
            return None
        self.hits += 1
        return entry.footprint_mask

    def allocate(self, pc: int, offset: int) -> None:
        """Install a fresh entry predicting only the triggering block."""
        if not 0 <= offset < self.blocks_per_page:
            raise ValueError(f"offset {offset} out of range")
        self._table.insert(self._key(pc, offset), _FhtEntry(footprint_mask=1 << offset))

    def update(self, pc: int, offset: int, observed_footprint: int) -> None:
        """Eviction feedback: store the footprint the page actually had.

        The tag entry holds only a *pointer* to the FHT entry, so the entry
        may have been evicted in the meantime (a stale pointer).  The paper
        observes this is rare because FHT content is stable; we count such
        events and drop the update, matching the hardware's behaviour of
        writing to a reallocated slot being undetectable but harmless.
        """
        self._check_mask(observed_footprint)
        self.updates += 1
        entry = self._table.lookup(self._key(pc, offset), touch=False)
        if entry is None:
            self.stale_updates += 1
            return
        entry.footprint_mask = observed_footprint | 1 << offset

    @property
    def hit_ratio(self) -> float:
        """Fraction of predictions served from history."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    @property
    def resident_entries(self) -> int:
        """Currently stored (pc, offset) pairs."""
        return len(self._table)

    def storage_bytes(self) -> int:
        """SRAM footprint: tag (~26b) + LRU + footprint vector per entry.

        Reproduces the paper's 144KB for 16K entries and 2KB pages.
        """
        tag_bits = 26
        lru_bits = max(1, (self.associativity - 1).bit_length())
        bits_per_entry = tag_bits + lru_bits + self.blocks_per_page + 8
        return self.num_entries * bits_per_entry // 8
