"""Observability: process-wide metrics, span tracing, structured logs.

The layer that turns the sweep engine, the serve API and the worker
fleet from a black box into a measurable system, without ever touching
the per-request replay inner loop:

* :mod:`repro.obs.metrics` — a zero-dependency metrics registry
  (counters and gauges, both with labels) that every subsystem
  shares through :func:`~repro.obs.metrics.registry`; exposed by
  ``repro serve`` as JSON (``GET /api/v1/metrics``) and Prometheus
  text format (``GET /metrics``);
* :mod:`repro.obs.spans` — monotonic-clock span tracing with parent
  ids, emitted as NDJSON when ``--trace FILE`` (or ``$REPRO_TRACE``)
  is set; every record validates against the checked-in
  ``span_schema.json``;
* :mod:`repro.obs.log` — the structured stderr logger behind every
  ``-v``/``--quiet`` flag (worker lines carry worker id + lease id);
* :mod:`repro.obs.summarize` — ``python -m repro obs summarize
  TRACE.ndjson``: per-phase time profile, top sinks, store-hit ratio,
  per-worker throughput and lease churn from a trace file alone.

Instrumentation aggregates from the simulator's existing ``int``
counters at point boundaries, so stored results stay byte-identical
and replay pays nothing per request.
Each ``point.simulate`` span records which path replayed the point
(``kernel``: a batch kernel, or the scalar reference loop); the
repository benchmark (``perfbench/README.md``) turns traces of whole
runs into per-layer timings.
"""

from repro.obs.log import Logger, configure_logging, get_logger, verbosity
from repro.obs.metrics import (
    MetricsRegistry,
    registry,
    render_prometheus,
    reset_registry,
)
from repro.obs.spans import (
    SPAN_SCHEMA_PATH,
    Span,
    Tracer,
    configure_tracer,
    load_span_schema,
    tracer,
    validate_span,
)
from repro.obs.summarize import render_summary, summarize_trace

__all__ = [
    "Logger",
    "MetricsRegistry",
    "SPAN_SCHEMA_PATH",
    "Span",
    "Tracer",
    "configure_logging",
    "configure_tracer",
    "get_logger",
    "load_span_schema",
    "registry",
    "render_prometheus",
    "render_summary",
    "reset_registry",
    "summarize_trace",
    "tracer",
    "validate_span",
    "verbosity",
]
