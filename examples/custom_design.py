#!/usr/bin/env python
"""Custom cache design: plug a third-party design into the registry.

The design registry (:mod:`repro.caches.registry`) is the extension point
for new DRAM cache organisations: register a builder with
``@register_design`` and the design becomes a first-class citizen — it
validates in :class:`~repro.sim.config.CacheConfig`, builds through
:func:`~repro.sim.system.build_system`, sweeps through
:class:`~repro.exp.ExperimentSpec`, and is priced by the Table 4 overhead
model you declare.

The design here is a *pair-fetch* cache: like the paper's sub-blocked
strawman it allocates pages and fetches on demand, but every demand miss
also pulls in the missing block's buddy (the other half of an aligned
128B pair) — a tiny, history-free footprint guess.  It slots between
"subblock" (maximum underprediction) and "footprint" (learned
footprints), which is exactly what the comparison below shows.

The module doubles as a *plugin* (see :mod:`repro.exp.plugins`): the
spec below names this file in ``plugins``, so the process backend's
workers import it on startup and the sweep parallelises.
``exist_ok=True`` keeps the registration import-idempotent (the parent
imports this file both as ``__main__`` and as the plugin).

Usage::

    python examples/custom_design.py
    python -m repro sweep --plugin examples/custom_design.py \
        --designs subblock,pairfetch,footprint --capacities 64 \
        --requests 60000 --jobs 2

"""

import os

from repro.analysis.report import format_table, percent
from repro.caches.registry import register_design
from repro.caches.subblock_cache import SubBlockedCache
from repro.core.overheads import (
    DesignOverheads,
    footprint_tag_bytes,
    sram_latency_cycles,
)
from repro.exp import ExperimentSpec, SweepRunner

MB = 1024 * 1024


class PairFetchCache(SubBlockedCache):
    """Sub-blocked cache that fetches aligned block pairs on a miss."""

    name = "pairfetch"

    def access(self, request, now):
        result = super().access(request, now)
        if result.hit:
            return result
        # Demand miss: also stage the buddy block of the aligned pair.
        # The extra fetch is off the critical path (the demand block
        # already returned) but fully charged to traffic and energy.
        page = request.page_address(self.page_size)
        offset = request.block_index_in_page(self.page_size, self.block_size)
        buddy = offset ^ 1
        line = self._tags.lookup(page)
        if line is not None and not line.demanded_mask & (1 << buddy):
            done = now + result.latency
            self.offchip.access(
                page + buddy * self.block_size, self.block_size, False, done
            )
            self.stacked.access(
                line.frame + buddy * self.block_size, self.block_size, True, done
            )
            line.demanded_mask |= 1 << buddy
            self.fill_blocks += 1
        return result


def _pairfetch_overheads(capacity_bytes, page_size, associativity):
    # Same per-page metadata as the sub-blocked design: tag, LRU and the
    # two bit vectors; the pairing heuristic itself needs no storage.
    storage = footprint_tag_bytes(capacity_bytes, page_size, associativity)
    return DesignOverheads(
        "pairfetch", capacity_bytes, storage, sram_latency_cycles(storage)
    )


@register_design(
    "pairfetch",
    exist_ok=True,  # import-idempotent: required of plugin modules
    description="sub-blocked cache fetching aligned 128B pairs on a miss",
    page_organised=True,  # open-page policies + page interleaving (Sec 5.2)
    overheads=_pairfetch_overheads,
)
def build_pairfetch(config, stacked, offchip):
    return PairFetchCache(
        stacked,
        offchip,
        capacity_bytes=config.capacity_bytes,
        page_size=config.page_size,
        associativity=config.associativity,
        tag_latency=config.resolved_tag_latency(),
    )


def main() -> None:
    print("Sweeping the registered custom design against the built-ins ...")
    # The custom name is now a valid axis value like any built-in, and
    # naming this file as the spec's plugin lets worker processes
    # re-register it — so the sweep fans out like any built-in grid.
    spec = ExperimentSpec(
        workloads="web_search",
        designs=("subblock", "pairfetch", "footprint"),
        capacities_mb=64,
        num_requests=60_000,
        plugins=(os.path.abspath(__file__),),
    )
    results = SweepRunner(store=None, jobs=2).run(spec)
    rows = []
    for point in results:
        result = results[point]
        rows.append(
            (
                point.design,
                percent(result.miss_ratio),
                f"{result.offchip_traffic_normalized:.2f}x",
                f"{result.aggregate_ipc:.2f}",
            )
        )
    print()
    print(
        format_table(
            ("Design", "Miss ratio", "Off-chip traffic", "IPC"),
            rows,
            title="Custom pair-fetch design vs built-ins (web_search, 64MB)",
        )
    )
    print()
    print(
        "Pair-fetch removes some of the sub-blocked design's cold misses "
        "at a small traffic premium; learned footprints (the paper's "
        "contribution) close the rest of the gap."
    )


if __name__ == "__main__":
    main()
