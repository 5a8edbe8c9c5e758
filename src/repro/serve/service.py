"""The simulation service: the ``/api/v1`` route table and its semantics.

Each route is one function here.  It reads the service's state — the
:class:`~repro.serve.jobs.JobManager`, the distributed-run
:class:`~repro.serve.coordinator.Coordinator` and the manager's one
:class:`~repro.exp.store.ResultStore` — and returns a transport-neutral
:class:`Response`.  :data:`API_ROUTES` is derived from the one route
table, and :func:`dispatch` maps ``(method, path)`` onto it, turning
every :class:`ServiceError` into a JSON error body.

The stdlib server (:mod:`repro.serve.httpd`, what ``python -m repro
serve`` runs) is a thin transport over :func:`dispatch`, and the tests
call the same function without a socket
(:class:`~repro.serve.faults.LocalTransport`).

The service itself holds no simulation state: jobs run in the job
manager, and results live in the store — warm points answer instantly
from the store (the cache tier), misses fan out through the execution
backend ``--jobs`` picks.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple
from urllib.parse import unquote

from repro.caches.registry import design_names
from repro.exp import ENGINE_VERSION
from repro.obs.metrics import registry, render_prometheus
from repro.serve.coordinator import Coordinator, ServiceError
from repro.serve.jobs import Job, JobManager, JobState, spec_from_payload
from repro.workloads.profiles import profile_names
from repro.workloads.trace import shared_trace_cache

API_VERSION = "v1"
API_PREFIX = f"/api/{API_VERSION}"

#: CSV columns of the results export, in order.  Axis columns identify
#: the point (plus its store key); metric columns are the headline
#: numbers every figure is built from.  The full result payload is the
#: JSON format's job — CSV is the spreadsheet-sized view.
RESULTS_CSV_COLUMNS: Tuple[str, ...] = (
    "workload", "design", "capacity_mb", "scale", "requests", "seed",
    "page_size", "key", "served", "miss_ratio", "hit_ratio",
    "offchip_traffic_normalized", "aggregate_ipc",
)


@dataclass
class Response:
    """Transport-neutral response: JSON payload, raw text, or a stream."""

    status: int = 200
    content_type: str = "application/json"
    payload: Any = None
    text: Optional[str] = None
    stream: Optional[Iterator[str]] = None

    def body_bytes(self) -> bytes:
        if self.text is not None:
            return self.text.encode()
        return (json.dumps(self.payload, sort_keys=True) + "\n").encode()


_TERMINAL_EVENTS = frozenset(
    state.value for state in JobState if state.terminal
)


class SimulationService:
    """The state every route reads: a job manager and a coordinator.

    Routes call :attr:`manager` and :attr:`coordinator` directly; the
    methods here are the few pieces of logic more than one route, or a
    stream, needs.
    """

    def __init__(
        self,
        manager: JobManager,
        allow_plugins: bool = False,
        coordinator: Optional[Coordinator] = None,
    ) -> None:
        self.manager = manager
        self.allow_plugins = allow_plugins
        self.coordinator = coordinator or Coordinator(
            store_dir=manager.store_dir, allow_plugins=allow_plugins
        )

    def _job(self, job_id: str) -> Job:
        try:
            return self.manager.get(job_id)
        except KeyError:
            raise ServiceError(404, f"unknown job {job_id!r}") from None

    def _refresh_gauges(self) -> None:
        """Mirror pull-model stats into the registry at scrape time.

        The trace cache keeps its own counters (zero registry traffic on
        the serving path); scrapes copy them into gauges here, so both
        exposition formats see fresh values without the cache ever
        paying for them.
        """
        stats = shared_trace_cache().stats()
        reg = registry()
        for name, help_text in (
            ("entries", "resident trace cache entries"),
            ("hits", "trace cache hits since process start"),
            ("misses", "trace cache misses since process start"),
            ("evictions", "trace cache LRU evictions since process start"),
            ("cached_requests", "requests resident in the cache"),
            ("resident_bytes", "columnar bytes resident in the cache"),
        ):
            reg.gauge(f"repro_trace_cache_{name}", help_text).set(stats[name])

    def stream_events(
        self, job: Job, since: int = 0, poll_seconds: float = 1.0
    ) -> Iterator[Dict[str, Any]]:
        """Yield events live until the job's terminal event has passed.

        A stream resumed at or past the end of a finished job's log
        ends at once, with nothing to yield.
        """
        cursor = since
        while not job.exhausted(cursor):
            batch = job.wait_events(cursor, timeout=poll_seconds)
            cursor += len(batch)
            for event in batch:
                yield event
                if event["event"] in _TERMINAL_EVENTS:
                    return

    def _result_rows(self, job: Job) -> List[Dict[str, Any]]:
        """Per-point results, served from the manager's store.

        The store is the source of truth for results — done jobs read
        back exactly what they persisted (byte-for-byte what a CLI
        sweep of the same spec would have stored), and cancelled or
        failed jobs serve whatever points completed before the end.
        """
        rows = []
        for point in job.points:
            result = self.manager.store.get(point)
            rows.append({
                "label": point.label(),
                "key": point.key(),
                "workload": point.workload,
                "design": point.design,
                "capacity_mb": point.capacity_mb,
                "scale": point.scale,
                "requests": point.resolved_requests,
                "seed": point.seed,
                "page_size": point.page_size,
                "served": result is not None,
                "result": None if result is None else result.to_dict(),
            })
        return rows


# ----------------------------------------------------------------------
# Routing: (method, path) -> route function.
# ----------------------------------------------------------------------


def match_route(pattern: str, path: str) -> Optional[Dict[str, str]]:
    """Path params if ``path`` matches the ``{param}`` template, else None."""
    pattern_parts = pattern.strip("/").split("/")
    path_parts = path.strip("/").split("/")
    if len(pattern_parts) != len(path_parts):
        return None
    params: Dict[str, str] = {}
    for template, part in zip(pattern_parts, path_parts):
        if template.startswith("{") and template.endswith("}"):
            if not part:
                return None
            params[template[1:-1]] = unquote(part)
        elif template != part:
            return None
    return params


def _int_query(query: Dict[str, str], name: str, default: int) -> int:
    """A non-negative integer query parameter (a cursor), else a 400."""
    try:
        value = int(query.get(name, default))
        if value < 0:
            raise ValueError(value)
    except (TypeError, ValueError):
        raise ServiceError(
            400, f"query parameter {name!r} must be a non-negative integer"
        )
    return value


def _ndjson(events: Iterator[Dict[str, Any]]) -> Iterator[str]:
    for event in events:
        yield json.dumps(event, sort_keys=True) + "\n"


def dispatch(
    service: SimulationService,
    method: str,
    path: str,
    query: Optional[Dict[str, str]] = None,
    body: Optional[bytes] = None,
) -> Response:
    """Route one request to the service; all API errors become JSON."""
    query = query or {}
    handler = _find(method, path)
    if handler is None:
        if any(match_route(route_path, path) is not None
               for _, route_path in API_ROUTES):
            return _error(405, f"method {method} not allowed for {path}")
        return _error(404, f"no such route: {path}")
    route_handler, params = handler
    try:
        return route_handler(service, params, query, body)
    except ServiceError as error:
        return _error(error.status, error.message)


def _error(status: int, message: str) -> Response:
    return Response(status=status, payload={"error": message})


def _json_body(body: Optional[bytes]) -> Any:
    if not body:
        raise ServiceError(400, "request body must be a JSON object")
    try:
        return json.loads(body)
    except ValueError as error:  # JSONDecodeError, or bytes that are not UTF-8
        raise ServiceError(400, f"request body is not valid JSON: {error}")


RouteHandler = Callable[
    [SimulationService, Dict[str, str], Dict[str, str], Optional[bytes]],
    Response,
]


def _index(service, params, query, body) -> Response:
    return Response(payload={
        "service": "repro-serve",
        "api": API_VERSION,
        "routes": [f"{method} {path}" for method, path in API_ROUTES],
    })


def _health(service, params, query, body) -> Response:
    manager = service.manager
    by_state = {state.value: 0 for state in JobState}
    for job in manager.list():
        by_state[job.state.value] += 1
    runs = service.coordinator.list_runs()
    return Response(payload={
        "status": "ok",
        "engine_version": ENGINE_VERSION,
        "run": manager.run_id,
        "store": manager.store.path,
        "store_records": len(manager.store),
        "workers": manager.workers,
        "jobs": by_state,
        "coordinator": {
            "runs": len(runs),
            "active": sum(1 for run in runs if run["state"] == "running"),
        },
    })


def _metrics(service, params, query, body) -> Response:
    service._refresh_gauges()
    return Response(payload={
        "service": "repro-serve",
        "run": service.manager.run_id,
        "metrics": registry().as_dict(),
    })


def _metrics_text(service, params, query, body) -> Response:
    service._refresh_gauges()
    return Response(
        content_type="text/plain; version=0.0.4; charset=utf-8",
        text=render_prometheus(registry()),
    )


def _designs(service, params, query, body) -> Response:
    return Response(payload={"designs": list(design_names())})


def _workloads(service, params, query, body) -> Response:
    return Response(payload={"workloads": list(profile_names())})


def _figures(service, params, query, body) -> Response:
    from repro.reporting import figure_names, get_figure

    return Response(payload={
        "figures": [
            {
                "name": name,
                "title": get_figure(name).title,
                "artifacts": list(get_figure(name).artifacts),
                "points": len(get_figure(name).points()),
            }
            for name in figure_names()
        ]
    })


def _submit_figure(service, params, query, body) -> Response:
    try:
        job = service.manager.submit_figure(params["name"])
    except KeyError as error:
        raise ServiceError(404, str(error.args[0])) from None
    return Response(status=202, payload=job.snapshot())


def _submit(service, params, query, body) -> Response:
    """Submit an ExperimentSpec payload (the ``--spec`` JSON format).

    Every point's key resolves inside the ``try``, as in
    ``Coordinator.submit``: a spec the simulator cannot build is a 400
    here, not a job that fails at run time.
    """
    payload = _json_body(body)
    try:
        spec = spec_from_payload(payload, allow_plugins=service.allow_plugins)
        for point in spec.points():
            point.key()
    except (ArithmeticError, TypeError, ValueError) as error:
        raise ServiceError(400, f"invalid spec: {error}") from None
    return Response(status=202, payload=service.manager.submit_spec(spec).snapshot())


def _jobs(service, params, query, body) -> Response:
    return Response(
        payload={"jobs": [job.snapshot() for job in service.manager.list()]}
    )


def _job(service, params, query, body) -> Response:
    return Response(payload=service._job(params["id"]).snapshot())


def _cancel(service, params, query, body) -> Response:
    job = service._job(params["id"])
    return Response(payload=service.manager.cancel(job.id).snapshot())


def _events(service, params, query, body) -> Response:
    since = _int_query(query, "since", 0)
    job = service._job(params["id"])
    if query.get("stream", "1") in ("0", "false", "no"):
        # One non-blocking page of the event log (poll style).
        events = job.events_since(since)
        return Response(payload={
            "job": job.id,
            "state": job.snapshot()["state"],
            "events": events,
            "next": since + len(events),
        })
    return Response(
        content_type="application/x-ndjson",
        stream=_ndjson(service.stream_events(job, since=since)),
    )


def _results(service, params, query, body) -> Response:
    job = service._job(params["id"])
    rows = service._result_rows(job)
    if query.get("format", "json") == "csv":
        return Response(content_type="text/csv", text=_results_csv(rows))
    payload = {
        "job": job.id,
        "kind": job.kind,
        "state": job.snapshot()["state"],
        "complete": all(row["served"] for row in rows),
        "points": rows,
    }
    if job.kind == "figure":
        payload["artifacts"] = list(job.artifacts)
    return Response(payload=payload)


def _results_csv(rows: List[Dict[str, Any]]) -> str:
    from repro.sim.simulator import SimulationResult

    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(RESULTS_CSV_COLUMNS)
    for row in rows:
        result = row["result"] or {}
        metrics = {
            "miss_ratio": result.get("miss_ratio", ""),
            "hit_ratio": result.get("hit_ratio", ""),
            "offchip_traffic_normalized": "",
            "aggregate_ipc": "",
        }
        if row["result"] is not None:
            full = SimulationResult.from_dict(row["result"])
            metrics["offchip_traffic_normalized"] = (
                full.offchip_traffic_normalized
            )
            metrics["aggregate_ipc"] = full.aggregate_ipc
        writer.writerow([
            row["workload"], row["design"], row["capacity_mb"],
            row["scale"], row["requests"], row["seed"], row["page_size"],
            row["key"], row["served"],
            metrics["miss_ratio"], metrics["hit_ratio"],
            metrics["offchip_traffic_normalized"],
            metrics["aggregate_ipc"],
        ])
    return out.getvalue()


def _journal(service, params, query, body) -> Response:
    manager = service.manager
    return Response(
        payload={"journal": manager.journal.path, "jobs": manager.history()}
    )


def _submit_run(service, params, query, body) -> Response:
    return Response(
        status=202, payload=service.coordinator.submit(_json_body(body))
    )


def _runs(service, params, query, body) -> Response:
    return Response(payload={"runs": service.coordinator.list_runs()})


def _run(service, params, query, body) -> Response:
    return Response(payload=service.coordinator.run_snapshot(params["id"]))


def _run_results(service, params, query, body) -> Response:
    since = _int_query(query, "since", 0)
    return Response(
        payload=service.coordinator.run_results(params["id"], since=since)
    )


def _lease(service, params, query, body) -> Response:
    # Leasing needs no parameters; a body, when present, names the worker.
    payload = _json_body(body) if body else {}
    worker = payload.get("worker") if isinstance(payload, dict) else None
    return Response(payload=service.coordinator.lease(worker))


def _deliver(service, params, query, body) -> Response:
    return Response(payload=service.coordinator.deliver(_json_body(body)))


def _complete(service, params, query, body) -> Response:
    return Response(payload=service.coordinator.complete(_json_body(body)))


#: Every route of the versioned API, ``(method, path template)`` ->
#: route function.  The one route table: :data:`API_ROUTES`, the API
#: index and the docs checker all read it, and a route that is not here
#: does not exist.
_HANDLERS: Dict[Tuple[str, str], RouteHandler] = {
    ("GET", f"{API_PREFIX}"): _index,
    ("GET", f"{API_PREFIX}/health"): _health,
    ("GET", f"{API_PREFIX}/metrics"): _metrics,
    # The one route outside the versioned prefix: Prometheus scrapers
    # expect the conventional bare path (text exposition format).
    ("GET", "/metrics"): _metrics_text,
    ("GET", f"{API_PREFIX}/designs"): _designs,
    ("GET", f"{API_PREFIX}/workloads"): _workloads,
    ("GET", f"{API_PREFIX}/figures"): _figures,
    ("POST", f"{API_PREFIX}/figures/{{name}}"): _submit_figure,
    ("POST", f"{API_PREFIX}/jobs"): _submit,
    ("GET", f"{API_PREFIX}/jobs"): _jobs,
    ("GET", f"{API_PREFIX}/jobs/{{id}}"): _job,
    ("POST", f"{API_PREFIX}/jobs/{{id}}/cancel"): _cancel,
    ("GET", f"{API_PREFIX}/jobs/{{id}}/events"): _events,
    ("GET", f"{API_PREFIX}/jobs/{{id}}/results"): _results,
    ("GET", f"{API_PREFIX}/journal"): _journal,
    # Distributed-sweep coordinator (src/repro/serve/coordinator.py):
    # submitters POST runs and page folded results; workers lease
    # shards, stream deliveries, and mark shards complete.
    ("POST", f"{API_PREFIX}/coordinator/runs"): _submit_run,
    ("GET", f"{API_PREFIX}/coordinator/runs"): _runs,
    ("GET", f"{API_PREFIX}/coordinator/runs/{{id}}"): _run,
    ("GET", f"{API_PREFIX}/coordinator/runs/{{id}}/results"): _run_results,
    ("POST", f"{API_PREFIX}/coordinator/lease"): _lease,
    ("POST", f"{API_PREFIX}/coordinator/results"): _deliver,
    ("POST", f"{API_PREFIX}/coordinator/complete"): _complete,
}

#: ``(method, path template)`` of every route, in index order.
API_ROUTES: Tuple[Tuple[str, str], ...] = tuple(_HANDLERS)


def _find(
    method: str, path: str
) -> Optional[Tuple[RouteHandler, Dict[str, str]]]:
    for (route_method, route_path), handler in _HANDLERS.items():
        if route_method != method:
            continue
        params = match_route(route_path, path)
        if params is not None:
            return handler, params
    return None


__all__ = [
    "API_PREFIX",
    "API_ROUTES",
    "API_VERSION",
    "RESULTS_CSV_COLUMNS",
    "Response",
    "ServiceError",
    "SimulationService",
    "dispatch",
    "match_route",
]
