"""Die-stacked DRAM cache designs the paper compares against.

* :mod:`repro.caches.block_cache` — the state-of-the-art block-based design
  (Loh-Hill: tags in DRAM rows, MissMap, compound access scheduling).
* :mod:`repro.caches.page_cache` — the page-based design (SRAM tags,
  whole-page fetch).
* :mod:`repro.caches.subblock_cache` — a sub-blocked cache that allocates
  pages but fetches blocks on demand (Section 3.1's "no overprediction,
  maximum underprediction" strawman; our predictor ablation baseline).
* :mod:`repro.caches.ideal_cache` — never misses, no tag overhead.
* :mod:`repro.caches.chop_cache` — the CHOP-style hot-page filter cache
  evaluated in Section 6.7.

The Footprint Cache itself — the paper's contribution — lives in
:mod:`repro.core`.  Which designs exist at all is decided by the design
registry (:mod:`repro.caches.registry`): each design registers a builder
plus its row-buffer/address-mapping traits and overhead model, and
third-party designs plug in through the same
:func:`~repro.caches.registry.register_design` decorator.
"""

from repro.caches.base import BaselineMemory, CacheAccessResult, DramCache
from repro.caches.registry import (
    DesignSpec,
    design_names,
    get_design,
    register_design,
    unregister_design,
)
from repro.caches.block_cache import BlockBasedCache
from repro.caches.chop_cache import ChopCache
from repro.caches.ideal_cache import IdealCache
from repro.caches.missmap import MissMap
from repro.caches.page_cache import PageBasedCache
from repro.caches.sram_cache import SetAssociativeCache
from repro.caches.subblock_cache import SubBlockedCache

__all__ = [
    "BaselineMemory",
    "CacheAccessResult",
    "DesignSpec",
    "DramCache",
    "design_names",
    "get_design",
    "register_design",
    "unregister_design",
    "BlockBasedCache",
    "ChopCache",
    "IdealCache",
    "MissMap",
    "PageBasedCache",
    "SetAssociativeCache",
    "SubBlockedCache",
]
