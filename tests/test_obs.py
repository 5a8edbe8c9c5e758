"""The observability primitives: metrics, spans, logs, summarize.

Everything ``repro.obs`` promises on its own, away from the serve
layer (``test_obs_serve.py`` covers the endpoints and fleet telemetry):
registry semantics and both exposition formats, NDJSON span emission
that validates record-for-record against the checked-in schema,
automatic parenting, the ``$REPRO_TRACE`` inheritance contract, the
structured logger's verbosity ladder, and the ``obs summarize`` CLI.
"""

from __future__ import annotations

import io
import json
import os
import threading

import pytest

from repro.__main__ import main
from repro.obs.log import configure_logging, get_logger, verbosity
from repro.obs.metrics import (
    MetricsRegistry,
    registry,
    render_prometheus,
    reset_registry,
)
from repro.obs.spans import (
    TRACE_ENV,
    Tracer,
    configure_tracer,
    load_span_schema,
    tracer,
    validate_span,
)
from repro.obs.summarize import summarize_trace


@pytest.fixture()
def clean_obs():
    """Fresh registry and a disabled tracer, restored afterwards."""
    reset_registry()
    saved = os.environ.pop(TRACE_ENV, None)
    yield
    configure_tracer(None)
    reset_registry()
    configure_logging()
    if saved is not None:
        os.environ[TRACE_ENV] = saved


class TestMetricsRegistry:
    def test_counter_labels_are_identity(self):
        reg = MetricsRegistry()
        reg.counter("points_total", "points", served="store").inc()
        reg.counter("points_total", "points", served="simulated").inc(2)
        samples = reg.as_dict()["points_total"]["samples"]
        assert {s["labels"]["served"]: s["value"] for s in samples} == {
            "store": 1, "simulated": 2,
        }

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_gauge_up_down(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("depth", "queue depth")
        gauge.inc()
        gauge.inc()
        gauge.dec()
        assert reg.as_dict()["depth"]["samples"][0]["value"] == 1
        gauge.set(7)
        assert reg.as_dict()["depth"]["samples"][0]["value"] == 7

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_histogram_buckets_cumulative(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", "latency", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        sample = reg.as_dict()["lat"]["samples"][0]
        assert sample["count"] == 3
        assert sample["sum"] == pytest.approx(5.55)
        counts = {b["le"]: b["count"] for b in sample["buckets"]}
        assert counts[0.1] == 1
        assert counts[1.0] == 2
        assert counts[float("inf")] == 3
        assert hist.mean == pytest.approx(5.55 / 3)

    def test_prometheus_text_format(self):
        reg = MetricsRegistry()
        reg.counter("jobs_total", "jobs by state", state="done").inc(3)
        reg.gauge("depth", "queue depth").set(2)
        reg.histogram("lat", "latency", buckets=(0.5,)).observe(0.2)
        text = render_prometheus(reg)
        assert '# TYPE jobs_total counter' in text
        assert 'jobs_total{state="done"} 3' in text
        assert "depth 2" in text
        assert 'lat_bucket{le="0.5"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_sum 0.2" in text
        assert "lat_count 1" in text
        assert text.endswith("\n")

    def test_prometheus_escapes_label_values(self):
        reg = MetricsRegistry()
        reg.counter("c", "", path='a"b\\c').inc()
        assert 'c{path="a\\"b\\\\c"} 1' in render_prometheus(reg)

    def test_concurrent_increments(self):
        reg = MetricsRegistry()

        def work():
            for _ in range(1000):
                reg.counter("hits", "", worker="w").inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert reg.as_dict()["hits"]["samples"][0]["value"] == 8000

    def test_reset_registry_isolates(self, clean_obs):
        registry().counter("left_over").inc()
        reset_registry()
        assert "left_over" not in registry().as_dict()


class TestSpans:
    def test_disabled_tracer_is_noop(self, tmp_path):
        trace = Tracer(None)
        assert not trace.enabled
        with trace.span("sweep.run", points=3) as span:
            span.annotate(hits=1)
            trace.event("sweep.point")
        # nothing written anywhere, no error

    def test_records_validate_and_parent(self, tmp_path):
        path = str(tmp_path / "t.ndjson")
        trace = Tracer(path, process="test")
        with trace.span("sweep.run", points=2) as run:
            with trace.span("sweep.execute", backend="serial"):
                trace.event("sweep.point", served="simulated")
            run.annotate(hits=0)
        trace.close()
        schema = load_span_schema()
        records = [json.loads(line) for line in open(path)]
        assert [r["name"] for r in records] == [
            "sweep.point", "sweep.execute", "sweep.run",
        ]
        for record in records:
            assert validate_span(record, schema) == []
        by_name = {r["name"]: r for r in records}
        assert by_name["sweep.run"]["parent"] is None
        assert by_name["sweep.execute"]["parent"] == by_name["sweep.run"]["span"]
        assert by_name["sweep.point"]["parent"] == by_name["sweep.execute"]["span"]
        assert by_name["sweep.point"]["duration"] == 0.0
        assert by_name["sweep.run"]["attrs"] == {"points": 2, "hits": 0}

    def test_validate_span_rejects_bad_records(self):
        schema = load_span_schema()
        good = {
            "schema": "repro-obs-span/1", "span": "ab" * 8, "parent": None,
            "name": "x.y", "process": "p", "pid": 1, "ts": 1.0,
            "start": 0.0, "duration": 0.0, "attrs": {"k": 1},
        }
        assert validate_span(good, schema) == []
        assert validate_span({**good, "span": "nope"}, schema)
        assert validate_span({**good, "duration": -1}, schema)
        assert validate_span({**good, "attrs": {"k": [1]}}, schema)
        assert validate_span({**good, "extra": 1}, schema)
        missing = dict(good)
        del missing["parent"]
        assert validate_span(missing, schema)
        assert validate_span("not a dict", schema)

    def test_configure_tracer_exports_env(self, tmp_path, clean_obs):
        path = str(tmp_path / "env.ndjson")
        trace = configure_tracer(path, process="parent")
        assert os.environ[TRACE_ENV] == os.path.abspath(path)
        assert tracer() is trace
        # A child process would build its tracer from the env var alone.
        child = Tracer(os.environ[TRACE_ENV], process="child")
        trace.event("coordinator.submit", run="r1")
        child.event("worker.deliver", worker="w1")
        child.close()
        configure_tracer(None)
        assert TRACE_ENV not in os.environ
        records = [json.loads(line) for line in open(path)]
        assert {r["process"] for r in records} == {"parent", "child"}

    def test_attrs_coerced_to_scalars(self, tmp_path):
        path = str(tmp_path / "c.ndjson")
        trace = Tracer(path, process="test")
        trace.event("sweep.point", shard=(1, 2), flag=True, none=None)
        trace.close()
        record = json.loads(open(path).read())
        assert record["attrs"] == {"shard": "(1, 2)", "flag": True, "none": None}
        assert validate_span(record) == []


class TestLogger:
    def _capture(self, level_args, emit):
        stream = io.StringIO()
        configure_logging(**level_args, stream=stream)
        try:
            emit(get_logger("test.obs"))
        finally:
            configure_logging()
        return stream.getvalue()

    def test_default_info_not_debug(self):
        out = self._capture({}, lambda log: (
            log.info("hello", n=1), log.debug("invisible")
        ))
        assert "test.obs: hello n=1" in out
        assert "invisible" not in out

    def test_quiet_only_warnings(self):
        out = self._capture({"quiet": True}, lambda log: (
            log.info("nope"), log.warning("lease lost", lease="L1")
        ))
        assert "nope" not in out
        assert "warn:" in out and "lease lost" in out and "lease=L1" in out

    def test_verbose_enables_debug(self):
        out = self._capture({"verbose": 1}, lambda log: log.debug("deep"))
        assert "deep" in out
        assert verbosity() > 0

    def test_bind_carries_fields(self):
        stream = io.StringIO()
        configure_logging(stream=stream)
        try:
            get_logger("serve.worker").bind(worker="w1", lease="L9").info(
                "leased shard", points=3
            )
        finally:
            configure_logging()
        line = stream.getvalue()
        assert "worker=w1" in line and "lease=L9" in line and "points=3" in line


class TestSummarize:
    def _write(self, path, records):
        with open(path, "w") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")

    def _record(self, name, span, parent=None, duration=0.0, process="p",
                **attrs):
        return {
            "schema": "repro-obs-span/1", "span": span, "parent": parent,
            "name": name, "process": process, "pid": 1, "ts": 100.0,
            "start": 0.0, "duration": duration, "attrs": attrs,
        }

    def test_summary_sections(self, tmp_path):
        path = str(tmp_path / "t.ndjson")
        run = "a" * 16
        self._write(path, [
            self._record("sweep.run", run, duration=2.0),
            self._record("sweep.point", "b" * 16, run, served="store"),
            self._record("sweep.point", "c" * 16, run, served="simulated"),
            self._record("point.simulate", "d" * 16, run, duration=1.5),
            self._record("coordinator.lease", "e" * 16, worker="w1"),
            self._record("coordinator.expire", "f" * 16, worker="w1"),
            self._record("worker.shard", "1" * 16, duration=2.0, worker="w1"),
            self._record("worker.deliver", "2" * 16, worker="w1"),
            self._record("worker.deliver", "3" * 16, worker="w1"),
            {"not": "a span"},
        ] )
        summary = summarize_trace(path)
        assert summary["records"] == 9
        assert summary["invalid"] == 1
        assert summary["orphans"] == 0
        assert summary["points"] == {
            "store": 1, "simulated": 1, "hit_ratio": 0.5,
        }
        assert summary["phases"][0]["name"] in ("sweep.run", "worker.shard")
        assert summary["leases"]["granted"] == 1
        assert summary["leases"]["expired"] == 1
        assert summary["leases"]["reassigned"] == 1
        (worker,) = summary["workers"]
        assert worker["worker"] == "w1"
        assert worker["points"] == 2
        assert worker["points_per_second"] == pytest.approx(1.0)

    def test_orphan_detection(self, tmp_path):
        path = str(tmp_path / "o.ndjson")
        self._write(path, [
            self._record("sweep.point", "b" * 16, parent="9" * 16),
        ])
        assert summarize_trace(path)["orphans"] == 1

    def test_top_limits_phases(self, tmp_path):
        path = str(tmp_path / "top.ndjson")
        self._write(path, [
            self._record(f"phase.{i}", format(i, "016x"), duration=float(i))
            for i in range(5)
        ])
        assert len(summarize_trace(path, top=2)["phases"]) == 2


class TestCli:
    def test_trace_flag_emits_valid_spans(self, tmp_path, capsys, clean_obs):
        trace_path = str(tmp_path / "cli.ndjson")
        assert main([
            "sweep", "--workloads", "web_search",
            "--designs", "page,footprint,block",
            "--capacities", "64", "--requests", "2000",
            "--store", str(tmp_path / "store"), "--trace", trace_path,
        ]) == 0
        schema = load_span_schema()
        records = [json.loads(line) for line in open(trace_path)]
        assert records, "sweep with --trace wrote no spans"
        for record in records:
            assert validate_span(record, schema) == []
        names = {r["name"] for r in records}
        assert {"sweep.run", "sweep.point", "point.simulate"} <= names
        # Each simulated point says which path replayed it.
        kernel = {
            r["attrs"]["design"]: r["attrs"]["kernel"]
            for r in records if r["name"] == "point.simulate"
        }
        assert kernel == {"page": True, "footprint": True, "block": False}
        capsys.readouterr()

        assert main(["obs", "summarize", trace_path]) == 0
        out = capsys.readouterr().out
        assert "top sinks" in out
        assert "sweep.run" in out

        assert main(["obs", "summarize", trace_path, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["invalid"] == 0
        assert summary["orphans"] == 0
        assert summary["points"]["simulated"] == 3

    def test_summarize_missing_file(self, capsys):
        assert main(["obs", "summarize", "/nonexistent/trace.ndjson"]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_quiet_sweep_prints_summary_only(self, tmp_path, capsys, clean_obs):
        assert main([
            "sweep", "--workloads", "web_search", "--designs", "page",
            "--capacities", "64", "--requests", "2000",
            "--store", str(tmp_path / "store"), "--quiet",
        ]) == 0
        out = capsys.readouterr().out
        assert "1 points in" in out
        assert "Sweep over" not in out
        assert "[1/1]" not in out

    def test_store_stats_shows_trace_cache(self, tmp_path, capsys):
        assert main(["store", "stats", "--store", str(tmp_path / "s")]) == 0
        out = capsys.readouterr().out
        assert "Trace cache" in out
        assert "resident bytes" in out
