"""Trace helpers: columnar traces, the shared trace cache, and statistics.

The paper's methodology replays the *same* trace through every cache
design (Section 5.4).  Generating that trace once and sharing it across
designs is therefore both a fidelity and a performance feature:

* :class:`Trace` is the one stored form of a request stream: parallel
  arrays of address/pc/type/core/icount.  The batch kernels read its
  columns; the scalar reference loop asks it for request objects, which
  it builds lazily and keeps none of.
* :class:`TraceCache` is a bounded per-process LRU over
  ``(profile, seed, page_size, block_size)`` generator identities.  A
  figure grid that replays one workload through six designs generates the
  trace once; the other five replays are served from memory.  Entries
  extend on demand (longer traces reuse the shorter prefix) and serve
  arbitrary ``[start, start+n)`` windows of the infinite deterministic
  request stream.

Correctness invariant (see ARCHITECTURE.md): the cache may never change
any simulated byte.  Served requests are value-identical to what the
generator would have produced — same RNG consumption, same field values —
so cold runs, warm runs and worker-process runs are indistinguishable in
every stored result.
"""

from __future__ import annotations

import threading
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.mem.request import AccessType, MemoryRequest, page_address
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.synthetic import SyntheticWorkload

#: Traces the shared cache holds: one figure grid's six workloads fit.
MAX_ENTRIES = 8

#: Requests the shared cache holds across all entries (about 27 bytes
#: each, so roughly 54 MB); least-recently-used entries go first.  A
#: simulator run longer than this never enters the cache: it streams.
MAX_TOTAL_REQUESTS = 2_000_000

# Requests per column slice when request objects are built lazily.
_VIEW_CHUNK = 1 << 12


class Trace:
    """A request stream in columnar form.

    Five parallel arrays hold one field each (address, pc, write flag,
    core id, instruction count), about 27 bytes per request.
    :meth:`requests` builds fresh :class:`MemoryRequest` objects for a
    window on demand and keeps none of them.

    Instances are conceptually immutable; only the owning
    :class:`TraceCache` entry appends to a trace (to extend it), which
    never disturbs previously served windows.
    """

    __slots__ = ("addresses", "pcs", "writes", "core_ids", "instruction_counts")

    def __init__(self) -> None:
        self.addresses = array("q")
        self.pcs = array("q")
        self.writes = array("b")
        self.core_ids = array("h")
        self.instruction_counts = array("q")

    @classmethod
    def from_requests(
        cls, requests: Iterable[MemoryRequest], limit: Optional[int] = None
    ) -> "Trace":
        """Columns of ``requests``, consuming at most ``limit`` of them."""
        trace = cls()
        trace._extend(requests if limit is None else islice(requests, limit))
        return trace

    def _extend(self, requests: Iterable[MemoryRequest]) -> None:
        append_address = self.addresses.append
        append_pc = self.pcs.append
        append_write = self.writes.append
        append_core = self.core_ids.append
        append_icount = self.instruction_counts.append
        write = AccessType.WRITE
        for request in requests:
            append_address(request.address)
            append_pc(request.pc)
            append_write(1 if request.access_type is write else 0)
            append_core(request.core_id)
            append_icount(request.instruction_count)

    def requests(
        self, start: int = 0, stop: Optional[int] = None
    ) -> Iterator[MemoryRequest]:
        """Fresh request objects for ``[start, stop)``, built lazily.

        Objects are made a slice of columns at a time.  Slices copy, so
        the view never pins the buffers of a trace that a cache entry
        may still grow.
        """
        if stop is None:
            stop = len(self.addresses)
        make = MemoryRequest.fast
        access_type = (AccessType.READ, AccessType.WRITE).__getitem__
        for begin in range(start, stop, _VIEW_CHUNK):
            end = min(begin + _VIEW_CHUNK, stop)
            yield from map(
                make,
                self.addresses[begin:end],
                self.pcs[begin:end],
                map(access_type, self.writes[begin:end]),
                self.core_ids[begin:end],
                self.instruction_counts[begin:end],
            )

    def __len__(self) -> int:
        return len(self.addresses)

    def nbytes(self) -> int:
        """Size of the columnar storage in bytes."""
        return sum(
            column.itemsize * len(column)
            for column in (
                self.addresses,
                self.pcs,
                self.writes,
                self.core_ids,
                self.instruction_counts,
            )
        )

    def __repr__(self) -> str:
        return f"Trace(n={len(self)}, columnar={self.nbytes()} bytes)"


class _TraceEntry:
    """One cached generator identity: the live workload plus its trace."""

    __slots__ = ("workload", "trace")

    def __init__(self, workload: SyntheticWorkload) -> None:
        self.workload = workload
        self.trace = Trace()

    def extend_to(self, length: int) -> None:
        """Grow the stored stream to at least ``length`` requests.

        The workload generator is consumed exactly in stream order, so a
        grown entry holds precisely the requests a single
        ``requests(length)`` call on a fresh workload would have yielded.
        """
        missing = length - len(self.trace)
        if missing > 0:
            self.trace._extend(self.workload.requests(missing))


TraceKey = Tuple[WorkloadProfile, int, int, int]


class TraceCache:
    """Bounded per-process LRU of columnar traces.

    Keyed by the full generator identity — the *resolved*
    :class:`~repro.workloads.profiles.WorkloadProfile` (a frozen value
    object, so a re-registered or re-scaled profile can never alias a
    stale trace), the seed, the page size the trace is shaped for, and
    the block size.  Entries hold the live generator and extend on
    demand: a request for a longer trace reuses the shorter prefix, and
    windows starting past 0 give simulators exact continuation
    semantics across repeated runs.

    The cache is transparent by construction: it stores what the
    generator produced and serves it unchanged, so any simulation fed
    from the cache is request-for-request identical to one fed from a
    fresh generator.  Memory is doubly bounded: ``max_entries`` caps the
    number of traces and ``max_total_requests`` caps the sum of their
    lengths; least-recently-used traces are dropped (and will be
    regenerated, bit-identically, if needed again).
    """

    def __init__(
        self,
        max_entries: int = MAX_ENTRIES,
        max_total_requests: int = MAX_TOTAL_REQUESTS,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        if max_total_requests < 0:
            raise ValueError("max_total_requests must be non-negative")
        self.max_entries = max_entries
        self.max_total_requests = max_total_requests
        self._entries: "OrderedDict[TraceKey, _TraceEntry]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        """Counters + occupancy: hits, misses, evictions, resident bytes.

        Surfaced, at scrape time, by the serve layer's ``/metrics``
        endpoints.
        """
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": (
                    self.hits / (self.hits + self.misses)
                    if self.hits + self.misses
                    else None
                ),
                "evictions": self.evictions,
                "cached_requests": self.cached_requests,
                "resident_bytes": sum(
                    entry.trace.nbytes()
                    for entry in self._entries.values()
                ),
            }

    @property
    def cached_requests(self) -> int:
        """Total stored requests across all entries."""
        return sum(len(entry.trace) for entry in self._entries.values())

    def _entry(
        self,
        profile: WorkloadProfile,
        seed: int,
        page_size: int,
        block_size: int,
    ) -> _TraceEntry:
        key: TraceKey = (profile, seed, page_size, block_size)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            entry = _TraceEntry(
                SyntheticWorkload(
                    profile, seed=seed, page_size=page_size, block_size=block_size
                )
            )
            self._entries[key] = entry
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
        else:
            self.hits += 1
            self._entries.move_to_end(key)
        return entry

    def columnar(
        self,
        profile: WorkloadProfile,
        seed: int,
        page_size: int,
        num_requests: int,
        start: int = 0,
        block_size: int = 64,
    ) -> Trace:
        """The trace holding window ``[start, start + num_requests)``.

        The stream is generated, under the cache lock, up to the end of
        the window.  The returned :class:`Trace` is the live cache
        entry's, which other threads may extend at any time: callers
        must treat it as read-only and must not hold a buffer export of
        its columns (a memoryview or ``np.frombuffer`` view), since an
        ``array`` cannot grow while one exists.  Copy slices instead
        (``column[a:b]``).
        """
        if num_requests < 0 or start < 0:
            raise ValueError("start and num_requests must be non-negative")
        with self._lock:
            entry = self._entry(profile, seed, page_size, block_size)
            entry.extend_to(start + num_requests)
            # Continuation growth is unbounded otherwise.  The entry just
            # served may be evicted too (it outgrew the whole budget);
            # the caller keeps its trace reference.
            while self._entries and self.cached_requests > self.max_total_requests:
                self._entries.popitem(last=False)
                self.evictions += 1
            return entry.trace

    def requests(
        self,
        profile: WorkloadProfile,
        seed: int,
        page_size: int,
        num_requests: int,
        start: int = 0,
        block_size: int = 64,
    ) -> List[MemoryRequest]:
        """Requests ``[start, start + num_requests)`` of the stream.

        An object view over :meth:`columnar`, with the same keying,
        accounting and budget; every call builds fresh objects.
        """
        trace = self.columnar(
            profile, seed, page_size, num_requests, start=start, block_size=block_size
        )
        return list(trace.requests(start, start + num_requests))

    def clear(self) -> None:
        """Drop every entry (testing / memory pressure)."""
        with self._lock:
            self._entries.clear()


_SHARED = TraceCache()


def shared_trace_cache() -> TraceCache:
    """The per-process trace cache the simulator serves replays from."""
    return _SHARED


@dataclass(frozen=True)
class TraceStatistics:
    """Summary statistics of a trace."""

    num_requests: int
    num_writes: int
    unique_pages: int
    unique_blocks: int
    unique_pcs: int
    total_instructions: int

    @property
    def write_fraction(self) -> float:
        """Fraction of write requests."""
        if self.num_requests == 0:
            return 0.0
        return self.num_writes / self.num_requests

    @property
    def accesses_per_kilo_instruction(self) -> float:
        """DRAM-cache accesses per 1000 instructions (L2 MPKI analogue)."""
        if self.total_instructions == 0:
            return 0.0
        return 1000.0 * self.num_requests / self.total_instructions


def trace_statistics(
    requests: Sequence[MemoryRequest], page_size: int = 2048
) -> TraceStatistics:
    """Compute :class:`TraceStatistics` over a list of requests."""
    pages = set()
    blocks = set()
    pcs = set()
    writes = 0
    instructions = 0
    for request in requests:
        pages.add(page_address(request.address, page_size))
        blocks.add(request.block_address())
        pcs.add(request.pc)
        if request.is_write:
            writes += 1
        instructions += request.instruction_count
    return TraceStatistics(
        num_requests=len(requests),
        num_writes=writes,
        unique_pages=len(pages),
        unique_blocks=len(blocks),
        unique_pcs=len(pcs),
        total_instructions=instructions,
    )
