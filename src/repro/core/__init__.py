"""The paper's primary contribution: the Footprint Cache.

* :mod:`repro.core.block_state` — the two-bit dirty/valid block state
  encoding of Table 2 (demanded vectors come for free).
* :mod:`repro.core.footprint_predictor` — the Footprint History Table,
  indexed by ``PC & offset`` (Section 4.2).
* :mod:`repro.core.singleton_table` — the Singleton Table behind the
  capacity optimisation (Section 4.4).
* :mod:`repro.core.footprint_cache` — the design itself: a page-based
  cache (:mod:`repro.caches.page_cache`) whose tag entries,
  :class:`PageEntry`, carry the Table 2 bit vectors and FHT pointers
  (Fig. 3).
* :mod:`repro.core.overheads` — the tag-storage/latency model of Table 4.
"""

from repro.core.block_state import BlockState, PageBlockBits
from repro.core.footprint_cache import FootprintCache, PageEntry
from repro.core.footprint_predictor import FootprintHistoryTable, PredictorStats
from repro.core.overheads import DesignOverheads, overheads_for, sram_latency_cycles
from repro.core.singleton_table import SingletonEntry, SingletonTable

__all__ = [
    "BlockState",
    "PageBlockBits",
    "FootprintCache",
    "FootprintHistoryTable",
    "PredictorStats",
    "DesignOverheads",
    "overheads_for",
    "sram_latency_cycles",
    "SingletonEntry",
    "SingletonTable",
    "PageEntry",
]
