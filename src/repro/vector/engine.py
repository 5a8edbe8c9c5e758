"""Segmented replay driver: the one path every ``Simulator.run()`` takes.

:func:`replay` asks :func:`~repro.vector.kernels.build_kernel` for a
batch kernel.  With one, it mirrors :meth:`Simulator._run_reference`
exactly — same request stream, same warm-up boundary semantics, same
summary — but feeds the trace to the kernel one segment at a time
instead of one request object at a time.  Without one, the scalar
reference loop replays the run.  Segments are columnar NumPy copies
(:mod:`repro.vector.columns`); request *objects* are only built for the
scalar fallback inside the kernels.

Stream parity notes:

* Both paths claim their share of the shared trace cache through
  ``Simulator._claim_cached_segment``, which advances the stream
  position by the full request budget up front.
* Generator workloads are drained through one ``islice`` per segment,
  which leaves the generator suspended at its last yield — the same
  state the reference's ``break`` leaves it in — so a continuation run
  on the same system resumes identically.
* Segments copy out of the shared cache's live trace and pin none of
  its buffers, so concurrent replays of one stream (``repro serve``
  runs jobs on threads) can each grow it.
"""

from __future__ import annotations

from itertools import islice

from repro.obs.metrics import registry
from repro.vector.columns import trace_segment
from repro.vector.kernels import build_kernel
from repro.workloads.trace import Trace, shared_trace_cache

# Requests per segment.  Large enough to amortise the NumPy precompute,
# small enough that the per-segment lists stay cache-friendly; tests
# shrink it to exercise segment-boundary behaviour.
SEGMENT_REQUESTS = 1 << 16


def _iterator_source(source):
    """Segments from a request iterator, pulled exactly ``n`` at a time."""

    def take(n):
        mini = Trace.from_requests(islice(source, n))
        return trace_segment(mini, 0, len(mini))

    return take


def _segment_source(sim, trace):
    """A ``take(n) -> TraceColumns`` closure over the run's request stream."""
    limit = sim.config.num_requests
    if trace is not None:
        if isinstance(trace, Trace):
            end = min(limit, len(trace))
            cursor = 0

            def take(n):
                nonlocal cursor
                stop = min(cursor + n, end)
                cols = trace_segment(trace, cursor, stop)
                cursor = stop
                return cols

            return take
        return _iterator_source(iter(trace))

    workload = sim.system.workload
    start = sim._claim_cached_segment(limit)
    if start is None:
        return _iterator_source(workload.requests(limit))
    cache = shared_trace_cache()
    end = start + limit
    cursor = start
    profile = workload.profile
    seed = sim.config.seed
    page_size = workload.page_size
    block_size = workload.block_size

    def take(n):
        nonlocal cursor
        stop = min(cursor + n, end)
        materialised = cache.columnar(
            profile,
            seed,
            page_size,
            stop - cursor,
            start=cursor,
            block_size=block_size,
        )
        cols = trace_segment(materialised, cursor, stop)
        cursor += len(cols)
        return cols

    return take


def replay(sim, trace=None):
    """Run ``sim`` to completion: batch kernel if the design has one.

    Sets ``sim.used_kernel``.  The kernel path is structured exactly
    like ``Simulator._run_reference``: reset, optional warm-up phase
    ending in a stats reset *before* the first measured request, replay
    until the request budget or the end of the trace, then summarise
    the measured window.
    """
    kernel = build_kernel(sim)
    sim.used_kernel = kernel is not None
    if kernel is None:
        # No kernel for this design/configuration: the scalar loop is
        # the reference, so the result is identical by construction.
        return sim._run_reference(trace)

    take = _segment_source(sim, trace)
    perf = sim.perf
    system = sim.system
    warmup = sim.config.warmup_requests
    limit = sim.config.num_requests

    system.reset_stats()
    perf.start_measurement()
    measuring = warmup == 0

    processed = 0
    instructions = 0
    while processed < limit:
        # The warm-up boundary must fall on a segment edge: cap segments
        # at the boundary, and reset stats only once a request actually
        # exists there (a trace ending exactly at the boundary stays
        # unmeasured, like the reference loop).
        at_boundary = not measuring and processed == warmup
        boundary = limit if (measuring or at_boundary) else min(warmup, limit)
        n = min(boundary - processed, SEGMENT_REQUESTS)
        cols = take(n)
        got = len(cols)
        if got == 0:
            break
        if at_boundary:
            perf._instructions += instructions
            instructions = 0
            system.reset_stats()
            perf.start_measurement()
            measuring = True
        instructions += kernel.run_segment(cols)
        processed += got
        if got < n:
            break
    perf._instructions += instructions

    measured = processed - warmup if measuring else processed
    # Point-boundary accounting only: one registry touch per replay,
    # never per request or per segment.
    registry().counter(
        "repro_kernel_requests_total",
        "requests replayed by a batch kernel",
    ).inc(processed)
    return sim._summarise(measured)
