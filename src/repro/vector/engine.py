"""Segmented replay driver: the one path every ``Simulator.run()`` takes.

:func:`replay` asks :func:`~repro.vector.kernels.build_kernel` for a
batch kernel.  With one, it mirrors :meth:`Simulator._run_reference`
exactly — same request window, same warm-up boundary semantics, same
summary — but feeds the window to the kernel one segment at a time
instead of one request object at a time.  Without one, the scalar
reference loop replays the run.

Stream parity notes:

* Both paths claim their requests once, through ``Simulator._windows``:
  ``(trace, start, stop)`` windows of columnar traces
  (:class:`~repro.workloads.trace.Trace`), usually one.  The stream
  position advances by the full request budget up front, so a
  continuation run on the same simulator resumes exactly where this one
  ended.
* Segments are columnar NumPy copies of a window
  (:mod:`repro.vector.columns`), cut at window edges as well as at the
  warm-up boundary, and pin none of the trace's buffers, so concurrent
  replays of one cached stream (``repro serve`` runs jobs on threads)
  can each grow it.
"""

from __future__ import annotations

from repro.obs.metrics import registry
from repro.vector.columns import trace_segment
from repro.vector.kernels import build_kernel

# Requests per segment.  Large enough to amortise the NumPy precompute,
# small enough that the per-segment lists stay cache-friendly; tests
# shrink it to exercise segment-boundary behaviour.
SEGMENT_REQUESTS = 1 << 16


def replay(sim, trace=None):
    """Run ``sim`` to completion: batch kernel if the design has one.

    Sets ``sim.used_kernel``.  The kernel path is structured exactly
    like ``Simulator._run_reference``: reset, optional warm-up phase
    ending in a stats reset *before* the first measured request, replay
    every window, then summarise the measured part.
    """
    kernel = build_kernel(sim)
    sim.used_kernel = kernel is not None
    if kernel is None:
        # No kernel for this design/configuration: the scalar loop is
        # the reference, so the result is identical by construction.
        return sim._run_reference(trace)

    perf = sim.perf
    system = sim.system
    warmup = sim.config.warmup_requests

    system.reset_stats()
    perf.start_measurement()
    measuring = warmup == 0

    processed = 0
    instructions = 0
    for window, start, stop in sim._windows(trace):
        position = start
        while position < stop:
            # The warm-up boundary must fall on a segment edge: cap
            # segments at the boundary, and reset stats only once a
            # request actually exists there (a run ending exactly at the
            # boundary stays unmeasured, like the reference loop).
            if not measuring and processed == warmup:
                perf._instructions += instructions
                instructions = 0
                system.reset_stats()
                perf.start_measurement()
                measuring = True
            n = min(stop - position, SEGMENT_REQUESTS)
            if not measuring:
                n = min(n, warmup - processed)
            instructions += kernel.run_segment(
                trace_segment(window, position, position + n)
            )
            position += n
            processed += n
    perf._instructions += instructions

    measured = processed - warmup if measuring else processed
    # Point-boundary accounting only: one registry touch per replay,
    # never per request or per segment.
    registry().counter(
        "repro_kernel_requests_total",
        "requests replayed by a batch kernel",
    ).inc(processed)
    return sim._summarise(measured)
