"""The synthetic trace engine: page visits driven by access functions.

The generator maintains a pool of concurrent *page visits*.  Each visit is
one invocation of an access function on one page: the function's PC, the
page address, and the ordered list of blocks the invocation will touch
(its footprint).  Every generated request advances a randomly chosen
visit, interleaving visits exactly the way requests from 16 cores
interleave at the DRAM cache.

Two properties of the paper's workloads emerge from this structure rather
than being hard-coded:

* **Footprint predictability** — a function's footprint is a memoised
  function of (PC, first-block offset), so the FHT's ``PC & offset``
  indexing recovers it (Section 3.1).  A per-function ``drift``
  probability resamples footprints, modelling SAT Solver's mutating
  dataset.
* **Density growing with capacity** (Fig. 4) — page density at eviction
  depends on whether visits complete, and resident pages accumulate
  footprints across revisits; both depend on residency time, i.e. cache
  capacity.
"""

from __future__ import annotations

import bisect
import math
import random
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.mem.request import AccessType, MemoryRequest
from repro.workloads.profiles import AccessFunctionSpec, WorkloadProfile


@dataclass(slots=True)
class _Visit:
    """One in-flight invocation of an access function on one page."""

    page: int
    pc: int
    blocks: Sequence[int]
    position: int
    write_fraction: float
    core_id: int


class _ZipfSampler:
    """Zipf(alpha) sampler over [0, n) with a precomputed CDF.

    Page popularity within a function's region.  ``alpha == 0`` degenerates
    to uniform; the CDF is built once per (n, alpha) pair and shared
    through a small per-process LRU (an unbounded cache would grow without
    limit under dataset-scale sweeps, which vary ``n`` per point).
    Eviction is invisible to samplers: the CDF is recomputed automatically
    (bit-identically — it is a pure function of ``(n, alpha)``) and live
    samplers keep a reference to their own CDF regardless.
    """

    _cache: "OrderedDict[Tuple[int, float], object]" = OrderedDict()
    _cache_max_entries = 32

    def __init__(self, n: int, alpha: float) -> None:
        if n <= 0:
            raise ValueError("n must be positive")
        self.n = n
        self.alpha = alpha
        key = (n, round(alpha, 6))
        cached = self._cache.get(key)
        if cached is None:
            cached = self._build_cdf(n, alpha)
            self._cache[key] = cached
            if len(self._cache) > self._cache_max_entries:
                self._cache.popitem(last=False)
        else:
            self._cache.move_to_end(key)
        self._cdf = cached

    @staticmethod
    def _build_cdf(n: int, alpha: float):
        ranks = np.arange(1, n + 1, dtype=np.float64)
        weights = ranks ** -alpha if alpha > 0 else np.ones(n)
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        return cdf

    def sample(self, u: float) -> int:
        """Rank (0-based) for a uniform draw ``u`` in [0, 1)."""
        return int(np.searchsorted(self._cdf, u, side="right"))


class _AccessFunction:
    """Runtime state of one access function: PCs, region, footprint memo."""

    # A large prime stride scatters the k-th popular page of a region over
    # the address space, so Zipf rank does not correlate with cache set.
    _SCATTER = 2654435761

    def __init__(
        self,
        spec: AccessFunctionSpec,
        pcs: Sequence[int],
        region_base: int,
        region_pages: int,
        page_size: int,
        blocks_per_page: int,
        rng: random.Random,
    ) -> None:
        self.spec = spec
        self.pcs = list(pcs)
        self.region_base = region_base
        self.region_pages = max(1, region_pages)
        self.page_size = page_size
        self.blocks_per_page = blocks_per_page
        self._rng = rng
        self._memo: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self._cursor = 0
        self._zipf = (
            _ZipfSampler(self.region_pages, spec.zipf_alpha)
            if spec.zipf_alpha > 0
            else None
        )

    def next_page(self) -> int:
        """Choose the page for a new visit.

        Zipf-skewed functions revisit popular pages (temporal reuse in the
        DRAM cache); streaming functions advance a cursor and never return.
        """
        if self._zipf is None:
            index = self._cursor
            self._cursor = (self._cursor + 1) % self.region_pages
        else:
            index = self._zipf.sample(self._rng.random())
        scattered = index * self._SCATTER % self.region_pages
        return self.region_base + scattered * self.page_size

    def footprint(self, pc: int, first_offset: int) -> Tuple[int, ...]:
        """Ordered blocks a visit keyed by (pc, first_offset) touches.

        Memoised so repeated invocations replay the same footprint — the
        spatial correlation the FHT learns.  With probability ``drift`` the
        footprint is resampled (and re-memoised), invalidating history.
        """
        key = (pc, first_offset)
        cached = self._memo.get(key)
        if cached is not None and self._rng.random() >= self.spec.drift:
            return cached
        pattern = self._generate(first_offset)
        self._memo[key] = pattern
        return pattern

    def _generate(self, first: int) -> Tuple[int, ...]:
        spec = self.spec
        top = self.blocks_per_page
        if spec.kind == "singleton":
            return (first,)
        if spec.kind == "full":
            return tuple(range(first, top)) + tuple(range(first))
        if spec.kind == "sequential":
            length = self._rng.randint(spec.min_blocks, spec.max_blocks)
            return tuple(first + i for i in range(length) if first + i < top) or (first,)
        if spec.kind == "strided":
            length = self._rng.randint(spec.min_blocks, spec.max_blocks)
            blocks = []
            offset = first
            while len(blocks) < length and offset < top:
                blocks.append(offset)
                offset += spec.stride
            return tuple(blocks) or (first,)
        if spec.kind == "sparse":
            length = self._rng.randint(spec.min_blocks, spec.max_blocks)
            others = [b for b in range(top) if b != first]
            chosen = self._rng.sample(others, min(length - 1, len(others)))
            return (first, *sorted(chosen))
        raise AssertionError(f"unreachable pattern kind {spec.kind!r}")

    def first_offset(self, page: int) -> int:
        """Starting block of a visit: the page's data-structure alignment.

        Alignment is a deterministic property of the page (where the
        record/object sits within it), so revisits touch the same blocks —
        the temporal reuse block-based caches live on — while different
        pages exercise different ``PC & offset`` keys (Section 3.1).
        """
        if self.spec.kind == "full":
            # Scans start at the beginning of the page.
            return 0
        return (page // self.page_size) * 0x9E3779B1 % self.blocks_per_page

    def pick_pc(self, page: int) -> int:
        """Call site that accesses ``page``.

        A given page holds a given kind of object, so the same call site
        keeps touching it across visits; distinct pages spread over the
        function's call sites.
        """
        return self.pcs[(page // self.page_size) * 0x85EBCA77 % len(self.pcs)]


class SyntheticWorkload:
    """Generator of the DRAM-cache-level request stream for one workload.

    Parameters
    ----------
    profile:
        Workload description (see :mod:`repro.workloads.profiles`).
    seed:
        Generator seed; traces are fully deterministic given (profile, seed).
    page_size:
        Page size the *trace* is shaped for (footprints span one page).
    """

    def __init__(
        self,
        profile: WorkloadProfile,
        seed: int = 0,
        page_size: int = 2048,
        block_size: int = 64,
    ) -> None:
        if page_size % block_size:
            raise ValueError("page_size must be a multiple of block_size")
        self.profile = profile
        self.page_size = page_size
        self.block_size = block_size
        self.blocks_per_page = page_size // block_size
        self._rng = random.Random(seed)
        self._functions = self._build_functions()
        self._weights = self._cumulative_weights()
        self._pool: List[_Visit] = []
        self._next_core = 0
        self._visit_count = 0

    def _build_functions(self) -> List[_AccessFunction]:
        functions: List[_AccessFunction] = []
        dataset_pages = max(1, self.profile.dataset_bytes // self.page_size)
        base = 0x10_0000_0000  # 64GB mark: clearly physical-looking addresses
        for index, spec in enumerate(self.profile.functions):
            region_pages = max(1, int(dataset_pages * spec.region_fraction))
            pcs = [
                0x40_0000 + (index * self.profile.pcs_per_function + j) * 4
                for j in range(self.profile.pcs_per_function)
            ]
            functions.append(
                _AccessFunction(
                    spec=spec,
                    pcs=pcs,
                    region_base=base,
                    region_pages=region_pages,
                    page_size=self.page_size,
                    blocks_per_page=self.blocks_per_page,
                    rng=self._rng,
                )
            )
            # Regions overlap deliberately only when fractions sum past 1;
            # offset each region so distinct functions mostly see distinct
            # pages, as distinct data structures would.
            base += region_pages * self.page_size
        return functions

    def _cumulative_weights(self) -> List[float]:
        total = 0.0
        cumulative = []
        for function in self._functions:
            total += function.spec.weight
            cumulative.append(total)
        return [c / total for c in cumulative]

    def _open_visit(self) -> _Visit:
        draw = self._rng.random()
        index = bisect.bisect_left(self._weights, draw)
        index = min(index, len(self._functions) - 1)
        function = self._functions[index]
        page = function.next_page()
        pc = function.pick_pc(page)
        first = function.first_offset(page)
        blocks = function.footprint(pc, first)
        core = self._next_core
        self._next_core = (self._next_core + 1) % self.profile.num_cores
        self._visit_count += 1
        return _Visit(
            page=page,
            pc=pc,
            blocks=blocks,
            position=0,
            write_fraction=function.spec.write_fraction,
            core_id=core,
        )

    @property
    def visits_opened(self) -> int:
        """Page visits started so far (for diagnostics)."""
        return self._visit_count

    def requests(self, count: int) -> Iterator[MemoryRequest]:
        """Yield ``count`` memory requests.

        The pool is topped up to ``profile.pool_size`` before each draw, so
        the first requests already reflect steady-state interleaving.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        rng = self._rng
        random_draw = rng.random
        randrange = rng.randrange
        log = math.log
        pool = self._pool
        pool_size = self.profile.pool_size
        block_size = self.block_size
        mean_gap = self.profile.instructions_per_access
        make_request = MemoryRequest.fast
        read, write = AccessType.READ, AccessType.WRITE
        for _ in range(count):
            while len(pool) < pool_size:
                pool.append(self._open_visit())
            slot = randrange(len(pool))
            visit = pool[slot]
            offset = visit.blocks[visit.position]
            address = visit.page + offset * block_size
            access_type = write if random_draw() < visit.write_fraction else read
            # Geometric gap with the profile's mean: bursty like real cores.
            gap = 1 + int(-mean_gap * log(max(random_draw(), 1e-12)))
            # Fast constructor: address and gap are non-negative by
            # construction, so the per-request validation adds nothing.
            yield make_request(address, visit.pc, access_type, visit.core_id, gap)
            visit.position += 1
            if visit.position >= len(visit.blocks):
                pool[slot] = pool[-1]
                pool.pop()
