"""Per-layer tracing for the traced benchmark run.

:func:`install` wraps the public functions of each program layer with
wrappers that record spans into an in-memory :class:`Recorder`.  The
recorder writes its spans out once, when the run ends, in the program's
own ``repro-obs-span/1`` NDJSON schema, so every record can be checked
with :func:`repro.obs.spans.validate_span`.

A layer's *self time* is its span's busy time minus the busy time of its
child spans.  A span's busy time is its duration, except for trace
generator spans: generation interleaves with whatever consumes the
requests, so their spans carry the time spent inside the generator as
``attrs.busy_s``.

Nothing here is imported by the untraced run: end-to-end metrics are
measured without these wrappers.
"""

from __future__ import annotations

import dataclasses
import json
import os
import secrets
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Dict, Iterable, List

SPAN_SCHEMA = "repro-obs-span/1"

#: Designs whose replay time is reported separately (``sim.replay_s.<design>``).
REPLAY_DESIGNS = ("ideal", "baseline", "block", "page", "footprint")


class Recorder:
    """Spans and counters of one process, kept in memory until :meth:`write`."""

    def __init__(self, process: str) -> None:
        self.process = process
        self.pid = os.getpid()
        self.records: List[dict] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, span_id, parent, name, start, duration, attrs) -> None:
        record = {
            "schema": SPAN_SCHEMA,
            "span": span_id,
            "parent": parent,
            "name": name,
            "process": self.process,
            "pid": self.pid,
            "ts": time.time(),
            "start": start,
            "duration": max(0.0, duration),
            "attrs": attrs,
        }
        with self._lock:
            self.records.append(record)

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one contiguous span; nested spans on a thread parent to it."""
        stack = self._stack()
        span_id = secrets.token_hex(8)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.monotonic()
        try:
            yield attrs
        finally:
            duration = time.monotonic() - start
            stack.pop()
            self._add(span_id, parent, name, start, duration, attrs)

    def timed_iter(self, name: str, iterator: Iterable, **attrs):
        """Yield from ``iterator``, recording only the time spent inside it.

        The span parents to whatever span is open when the first item is
        pulled, which is the consumer the generation time is subtracted
        from.
        """
        clock = time.monotonic
        busy = 0.0
        count = 0
        first = None
        parent = None
        iterator = iter(iterator)
        try:
            while True:
                began = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    busy += clock() - began
                    return
                busy += clock() - began
                if first is None:
                    first = began
                    stack = self._stack()
                    parent = stack[-1] if stack else None
                count += 1
                yield item
        finally:
            if first is not None:
                self._add(
                    secrets.token_hex(8), parent, name, first, clock() - first,
                    dict(attrs, busy_s=busy, requests=count),
                )
            with self._lock:
                self.counts["gen_requests"] += count

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def write(self, path: str) -> None:
        """Write every span as one NDJSON line (the run-end flush)."""
        with self._lock:
            records = list(self.records)
        with open(path, "w") as handle:
            for record in records:
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")


def _spanned(recorder: Recorder, function, name: str, attrs_of=None):
    """``function`` wrapped in a span called ``name``."""

    def wrapper(*args, **kwargs):
        attrs = attrs_of(*args, **kwargs) if attrs_of is not None else {}
        with recorder.span(name, **attrs):
            return function(*args, **kwargs)

    wrapper.__wrapped__ = function
    return wrapper


def _wrap_span(recorder: Recorder, owner, attr: str, name: str, attrs_of=None):
    setattr(owner, attr, _spanned(recorder, getattr(owner, attr), name, attrs_of))


def install(recorder: Recorder, serve: bool = False) -> None:
    """Wrap every measured layer's public functions (see README.md)."""
    import repro.reporting as reporting
    from repro.exp.runner import SweepRunner
    from repro.exp.store import ResultStore
    from repro.reporting import figures, registry
    from repro.sim.simulator import Simulator
    from repro.vector import engine as vector_engine
    from repro.workloads.synthetic import SyntheticWorkload
    from repro.workloads.trace import TraceCache

    # exp: the sweep runner and the result store.
    _wrap_span(recorder, SweepRunner, "run", "exp.runner")
    for attr in ("get", "put", "_load", "__len__"):
        _wrap_span(recorder, ResultStore, attr, f"exp.store.{attr.strip('_')}")
    store_init = ResultStore.__init__

    def counted_init(self, *args, **kwargs):
        recorder.count("store_opens")
        store_init(self, *args, **kwargs)

    ResultStore.__init__ = counted_init

    # sim: system construction and replay, per design.
    _wrap_span(
        recorder, Simulator, "__init__", "sim.build",
        lambda self, config, *a, **k: {"design": config.cache.design},
    )
    replay = Simulator.run

    def run(self, *args, **kwargs):
        requests = self.config.num_requests
        recorder._local.kernel = False
        with recorder.span("sim.replay", design=self.config.cache.design,
                           requests=requests):
            result = replay(self, *args, **kwargs)
        recorder.count("replay_requests", requests)
        if recorder._local.kernel:
            recorder.count("kernel_requests", requests)
        return result

    Simulator.run = run

    # vector: whether a batch kernel exists for the replayed design.
    build_kernel = vector_engine.build_kernel

    def counted_build_kernel(sim):
        kernel = build_kernel(sim)
        recorder._local.kernel = kernel is not None
        return kernel

    vector_engine.build_kernel = counted_build_kernel

    # workloads: trace-cache serving and request generation.
    for attr in ("requests", "columnar"):
        _wrap_span(recorder, TraceCache, attr, "workloads.trace_cache")
    generate = SyntheticWorkload.requests

    def requests(self, count):
        return recorder.timed_iter("workloads.gen", generate(self, count))

    SyntheticWorkload.requests = requests

    # analysis: the trace analyses behind Fig. 4 and Fig. 12.
    _wrap_span(recorder, figures, "density_profiles", "analysis.density")
    _wrap_span(recorder, figures, "access_counts_per_page", "analysis.coverage")
    _wrap_span(recorder, figures, "coverage_curve", "analysis.coverage")

    # reporting: figure jobs, renderers and artifact writes.
    for owner in (reporting, registry):
        _wrap_span(recorder, owner, "run_figure", "reporting.figure",
                   lambda name, **k: {"figure": name})
        _wrap_span(recorder, owner, "write_artifacts", "reporting.write")
    for name, figure in list(registry._REGISTRY.items()):
        registry._REGISTRY[name] = dataclasses.replace(
            figure,
            render=_spanned(recorder, figure.render, "reporting.render"),
        )

    if serve:
        from repro.serve import httpd
        from repro.serve.jobs import JobManager

        _wrap_span(
            recorder, httpd._Handler, "_dispatch", "serve.request",
            lambda handler, method: {"method": method,
                                     "path": handler.path.split("?")[0]},
        )
        _wrap_span(recorder, JobManager, "_execute", "serve.job",
                   lambda manager, job: {"kind": job.kind})


def self_times(records: List[dict]) -> Dict[str, float]:
    """Span id -> self time (busy time minus the busy time of its children)."""
    busy = {
        r["span"]: float(r["attrs"].get("busy_s", r["duration"])) for r in records
    }
    children: Dict[str, float] = defaultdict(float)
    for r in records:
        if r["parent"] in busy:
            children[r["parent"]] += busy[r["span"]]
    return {span: max(0.0, busy[span] - children[span]) for span in busy}


def layer_metrics(records: List[dict], counts: Counter, cache_stats: dict) -> dict:
    """The per-layer metrics of one process's spans and counters."""
    own = self_times(records)
    by_name: Dict[str, float] = defaultdict(float)
    inclusive: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    replay: Dict[str, float] = defaultdict(float)
    for r in records:
        name = r["name"]
        if name == "serve.request" and r["attrs"]["path"].endswith("/events"):
            # An event stream mostly waits for its job; that is not handling.
            name = "serve.events"
        by_name[name] += own[r["span"]]
        inclusive[name] += r["duration"]
        calls[name] += 1
        if name == "sim.replay":
            replay[r["attrs"]["design"]] += own[r["span"]]
    lookups = cache_stats.get("hits", 0) + cache_stats.get("misses", 0)
    replayed = counts.get("replay_requests", 0)
    metrics = {
        "workloads.gen_s": by_name["workloads.gen"] + by_name["workloads.trace_cache"],
        "workloads.gen_requests": counts.get("gen_requests", 0),
        "workloads.trace_cache_hit_ratio": (
            cache_stats.get("hits", 0) / lookups if lookups else 0.0
        ),
        "workloads.trace_cache_evictions": cache_stats.get("evictions", 0),
        "sim.build_s": by_name["sim.build"],
        "sim.replay_requests": replayed,
        "vector.kernel_share": (
            counts.get("kernel_requests", 0) / replayed if replayed else 0.0
        ),
        "exp.runner.self_s": by_name["exp.runner"],
        "exp.store.get_s": inclusive["exp.store.get"],
        "exp.store.put_s": inclusive["exp.store.put"],
        "exp.store.load_s": inclusive["exp.store.load"],
        "exp.store.get_calls": calls["exp.store.get"],
        "exp.store.put_calls": calls["exp.store.put"],
        "exp.store.opens": counts.get("store_opens", 0),
        "analysis.density_s": by_name["analysis.density"],
        "analysis.coverage_s": by_name["analysis.coverage"],
        "reporting.figure_s": by_name["reporting.figure"],
        "reporting.render_s": by_name["reporting.render"],
        "reporting.write_s": by_name["reporting.write"],
        "serve.handler_s": by_name["serve.request"] + by_name["serve.job"],
    }
    for design in REPLAY_DESIGNS:
        metrics[f"sim.replay_s.{design}"] = replay[design]
    return metrics


def layer_self_total(records: List[dict], roots: Iterable[str]) -> float:
    """Self time of every span except the named root spans."""
    own = self_times(records)
    skip = set(roots)
    return sum(own[r["span"]] for r in records if r["name"] not in skip)
