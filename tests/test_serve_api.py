"""End-to-end HTTP API tests over real sockets.

The stdlib ``http.server`` frontend binds an ephemeral port and the
tests drive it with ``urllib`` — the actual wire protocol, no test
doubles.  Query validation is checked one layer down, through
``dispatch``, where a refused request never opens a stream.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request
from urllib.parse import urlsplit

import pytest

import repro.exp.runner as runner_module
from repro.exp import ExperimentSpec, ResultStore, SweepRunner
from repro.serve import API_PREFIX, dispatch
from repro.sim.simulator import SimulationResult


def tiny_spec(**overrides) -> ExperimentSpec:
    base = dict(
        workloads=("web_search",), designs=("page",),
        capacities_mb=64, num_requests=2000,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


@pytest.fixture(scope="module")
def result_payload() -> dict:
    runner = SweepRunner(store=None)
    return runner.run_one(tiny_spec().points()[0]).to_dict()


@pytest.fixture()
def server(tmp_path, result_payload, http_stack):
    """(base_url, store) with the spec's seeds 0-3 already warm.

    Built on the shared ``http_stack`` harness from ``conftest.py`` (the
    same stack ``test_distributed.py`` drives), so this suite exercises
    exactly the service composition the other one does — job manager
    plus coordinator over one store, torn down by the fixtures.
    """
    store = ResultStore(str(tmp_path / "store"))
    result = SimulationResult.from_dict(result_payload)
    for point in tiny_spec(seeds=(0, 1, 2, 3)).points():
        store.put(point, result)
    base, _service = http_stack(store_dir=store.directory, workers=1)
    return base, store


def request(base, path, method="GET", payload=None):
    """(status, parsed-or-text body) for one API call."""
    data = None
    headers = {}
    if payload is not None:
        data = json.dumps(payload).encode()
        headers["Content-Type"] = "application/json"
    req = urllib.request.Request(
        f"{base}{API_PREFIX}{path}", data=data, headers=headers, method=method
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as response:
            body = response.read().decode()
            status = response.status
    except urllib.error.HTTPError as error:
        body = error.read().decode()
        status = error.code
    try:
        return status, json.loads(body)
    except json.JSONDecodeError:
        return status, body


def poll_done(base, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, snapshot = request(base, f"/jobs/{job_id}")
        assert status == 200
        if snapshot["state"] in ("done", "failed", "cancelled"):
            return snapshot
        time.sleep(0.05)
    raise AssertionError("job never reached a terminal state")


def test_index_lists_every_route(server):
    base, _ = server
    status, payload = request(base, "")
    assert status == 200
    assert payload["api"] == "v1"
    assert payload["routes"] == [
        "GET /api/v1",
        "GET /api/v1/health",
        "GET /api/v1/metrics",
        "GET /metrics",
        "GET /api/v1/designs",
        "GET /api/v1/workloads",
        "GET /api/v1/figures",
        "POST /api/v1/figures/{name}",
        "POST /api/v1/jobs",
        "GET /api/v1/jobs",
        "GET /api/v1/jobs/{id}",
        "POST /api/v1/jobs/{id}/cancel",
        "GET /api/v1/jobs/{id}/events",
        "GET /api/v1/jobs/{id}/results",
        "GET /api/v1/journal",
        "POST /api/v1/coordinator/runs",
        "GET /api/v1/coordinator/runs",
        "GET /api/v1/coordinator/runs/{id}",
        "GET /api/v1/coordinator/runs/{id}/results",
        "POST /api/v1/coordinator/lease",
        "POST /api/v1/coordinator/results",
        "POST /api/v1/coordinator/complete",
    ]


def test_health_reports_store_and_workers(server):
    base, store = server
    status, payload = request(base, "/health")
    assert status == 200
    assert payload["status"] == "ok"
    assert payload["store_records"] == 4
    assert payload["workers"] == 1
    assert payload["coordinator"] == {"runs": 0, "active": 0}


def test_catalog_endpoints(server):
    base, _ = server
    assert "footprint" in request(base, "/designs")[1]["designs"]
    assert "web_search" in request(base, "/workloads")[1]["workloads"]
    figures = request(base, "/figures")[1]["figures"]
    assert any(figure["name"] == "fig01" for figure in figures)


def test_submit_poll_results_csv_roundtrip(server):
    base, _ = server
    spec = tiny_spec(seeds=(0, 1, 2, 3))
    status, submitted = request(base, "/jobs", method="POST",
                                payload=spec.to_dict())
    assert status == 202
    # A fully warm job can finish before the submit response is built,
    # so any state short of failure is legitimate here.
    assert submitted["state"] in ("pending", "running", "done")
    job_id = submitted["id"]

    snapshot = poll_done(base, job_id)
    assert snapshot["state"] == "done"
    assert snapshot["progress"] == {
        "total": 4, "completed": 4, "served_from_store": 4, "simulated": 0,
    }

    status, results = request(base, f"/jobs/{job_id}/results")
    assert status == 200
    assert results["complete"] is True
    assert len(results["points"]) == 4
    assert all(row["served"] for row in results["points"])
    assert results["points"][0]["result"]["miss_ratio"] >= 0

    status, csv_text = request(base, f"/jobs/{job_id}/results?format=csv")
    assert status == 200
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("workload,design,capacity_mb")
    assert len(lines) == 5  # header + one row per point

    status, listing = request(base, "/jobs")
    assert status == 200
    assert any(job["id"] == job_id for job in listing["jobs"])


def test_event_pages_and_stream(server):
    base, _ = server
    spec = tiny_spec(seeds=(0, 1))
    _, submitted = request(base, "/jobs", method="POST", payload=spec.to_dict())
    job_id = submitted["id"]
    poll_done(base, job_id)

    # Poll mode: one page, then an empty follow-up from the cursor.
    status, page = request(base, f"/jobs/{job_id}/events?stream=0")
    assert status == 200
    names = [event["event"] for event in page["events"]]
    assert names[0] == "submitted"
    assert names[-1] == "done"
    assert names.count("point") == 2
    status, tail = request(
        base, f"/jobs/{job_id}/events?stream=0&since={page['next']}"
    )
    assert tail["events"] == []

    # Stream mode: NDJSON lines ending with the terminal event.
    with urllib.request.urlopen(
        f"{base}{API_PREFIX}/jobs/{job_id}/events", timeout=30
    ) as response:
        assert response.headers["Content-Type"] == "application/x-ndjson"
        events = [json.loads(line) for line in response.read().splitlines()]
    assert [event["event"] for event in events] == names

    # A stream resumed at or past the end of a finished job's log has
    # nothing left to send: it ends at once with an empty body.
    for since in (page["next"], page["next"] + 5):
        with urllib.request.urlopen(
            f"{base}{API_PREFIX}/jobs/{job_id}/events?since={since}",
            timeout=5,
        ) as response:
            assert response.status == 200
            assert response.read() == b""


def test_stream_disconnect_mid_event_leaves_server_healthy(server):
    """A client that hangs up mid-NDJSON-line must not hurt anything.

    The handler thread writing the stream hits ``BrokenPipeError``; the
    job keeps running to completion and the server keeps answering —
    close-delimited streaming means the *client* is the only casualty
    of its own disconnect.
    """
    import http.client
    from urllib.parse import urlsplit

    base, _ = server
    # Cold seeds: the job simulates long enough for the stream to be
    # live (not already terminated) when we cut the connection.
    spec = tiny_spec(seeds=(70, 71, 72, 73, 74, 75))
    _, submitted = request(base, "/jobs", method="POST", payload=spec.to_dict())
    job_id = submitted["id"]

    split = urlsplit(base)
    connection = http.client.HTTPConnection(
        split.hostname, split.port, timeout=30
    )
    try:
        connection.request("GET", f"{API_PREFIX}/jobs/{job_id}/events")
        response = connection.getresponse()
        assert response.status == 200
        # A few raw bytes — mid-event, not even one full NDJSON line.
        assert len(response.read(10)) == 10
    finally:
        connection.close()  # slam the socket mid-stream

    snapshot = poll_done(base, job_id)
    assert snapshot["state"] == "done"
    assert snapshot["progress"]["completed"] == 6
    # The server (and a fresh stream) still work after the broken pipe.
    status, payload = request(base, "/health")
    assert status == 200 and payload["status"] == "ok"
    with urllib.request.urlopen(
        f"{base}{API_PREFIX}/jobs/{job_id}/events", timeout=30
    ) as replay:
        events = [json.loads(line) for line in replay.read().splitlines()]
    assert events[-1]["event"] == "done"


def test_cancel_queued_job_via_api(server, monkeypatch):
    base, _ = server
    # Cold seeds occupy the single worker; the second job is queued.
    # The first job's points block until the cancel has been asserted,
    # so they cannot finish first and let the queued job start.
    release = threading.Event()
    simulate = runner_module.run_point

    def blocked(point):
        release.wait()
        return simulate(point)

    monkeypatch.setattr(runner_module, "run_point", blocked)
    try:
        running = request(base, "/jobs", method="POST",
                          payload=tiny_spec(seeds=(50, 51, 52)).to_dict())[1]
        queued = request(base, "/jobs", method="POST",
                         payload=tiny_spec(seeds=(60, 61)).to_dict())[1]
        status, cancelled = request(
            base, f"/jobs/{queued['id']}/cancel", method="POST", payload={}
        )
        assert status == 200
        assert cancelled["state"] == "cancelled"
    finally:
        release.set()
    request(base, f"/jobs/{running['id']}/cancel", method="POST", payload={})
    poll_done(base, running["id"])


def test_error_statuses(server):
    base, _ = server
    assert request(base, "/jobs/nope")[0] == 404
    assert request(base, "/jobs/nope/events")[0] == 404  # stream mode too
    assert request(base, "/nope")[0] == 404
    assert request(base, "/health", method="POST", payload={})[0] == 405
    status, payload = request(base, "/jobs", method="POST",
                              payload={"designs": ["not_a_design"]})
    assert status == 400
    assert "invalid spec" in payload["error"]
    status, payload = request(base, "/jobs", method="POST",
                              payload={"plugins": ["evil.py"]})
    assert status == 400
    assert "plugins" in payload["error"]
    status, payload = request(base, "/figures/fig99", method="POST", payload={})
    assert status == 404


def test_since_cursor_must_be_a_non_negative_integer(
    tmp_path, result_payload, serve_stack
):
    """A negative cursor would slice the log from its end: a client that
    follows ``next`` would re-read events, and a stream would skip the
    first ones.  Both cursors (job events, run results) refuse it."""
    store = ResultStore(str(tmp_path / "store"))
    spec = tiny_spec(seeds=(0, 1))
    for point in spec.points():
        store.put(point, SimulationResult.from_dict(result_payload))
    service = serve_stack(store_dir=store.directory)
    submitted = dispatch(
        service, "POST", f"{API_PREFIX}/jobs", body=json.dumps(spec.to_dict()).encode()
    )
    job_id = submitted.payload["id"]
    deadline = time.monotonic() + 60
    while dispatch(service, "GET", f"{API_PREFIX}/jobs/{job_id}").payload[
        "state"
    ] != "done":
        assert time.monotonic() < deadline, "warm job never finished"
        time.sleep(0.02)
    events_path = f"{API_PREFIX}/jobs/{job_id}/events"

    for since in ("-2", "x"):
        for mode in ({"stream": "0"}, {}):  # poll, then stream
            response = dispatch(
                service, "GET", events_path, query={"since": since, **mode}
            )
            assert response.status == 400, (since, mode)
            assert response.stream is None
            assert "'since'" in response.payload["error"]

    page = dispatch(
        service, "GET", events_path, query={"since": "0", "stream": "0"}
    ).payload
    assert page["events"][0]["event"] == "submitted"
    assert page["events"][-1]["event"] == "done"
    assert page["next"] == len(page["events"])

    run = dispatch(
        service, "POST", f"{API_PREFIX}/coordinator/runs",
        body=json.dumps({"points": [p.to_dict() for p in spec.points()]}).encode(),
    ).payload["id"]
    results_path = f"{API_PREFIX}/coordinator/runs/{run}/results"
    assert dispatch(service, "GET", results_path, query={"since": "-1"}).status == 400
    assert dispatch(service, "GET", results_path, query={"since": "0"}).status == 200


def test_spec_submit_resolves_every_point_at_the_door(serve_stack):
    """A spec whose points cannot be built is a 400 that creates no job.

    Each body once escaped ``dispatch`` as an exception (a dropped
    connection) or was accepted and failed at run time.
    """
    service = serve_stack()
    jobs_path = f"{API_PREFIX}/jobs"
    base = {"workloads": ["web_search"], "designs": ["page"]}
    for bad in (
        {"capacities_mb": [-1]},
        {"seeds": [1e400]},
        {"num_requests": [-5]},
        {"num_requests": -5},
        {"num_requests": "x"},
    ):
        body = json.dumps({**base, **bad}).encode()
        response = dispatch(service, "POST", jobs_path, body=body)
        assert response.status == 400, bad
        assert response.payload["error"].startswith("invalid spec: "), bad
    assert dispatch(service, "GET", jobs_path).payload["jobs"] == []
    valid = json.dumps(tiny_spec().to_dict()).encode()
    assert dispatch(service, "POST", jobs_path, body=valid).status == 202


@pytest.mark.parametrize("declared", ["abc", "-5"])
def test_malformed_content_length_gets_400_and_close(http_stack, declared):
    """A Content-Length that is not a size is a 400 that ends the connection.

    Its body's extent is unknown, so the server must neither crash the
    handler (``abc``) nor leave the body's bytes to be parsed as the next
    request (``-5``): exactly one JSON error arrives, then EOF.
    """
    base, _ = http_stack()
    split = urlsplit(base)
    with socket.create_connection((split.hostname, split.port), timeout=10) as sock:
        sock.sendall(
            f"POST {API_PREFIX}/jobs HTTP/1.1\r\nHost: {split.netloc}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {declared}\r\n"
            "\r\n{}".encode()
        )
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
    head, _, body = received.partition(b"\r\n\r\n")
    status_line, *headers = head.decode().split("\r\n")
    assert status_line.split()[1] == "400"
    assert "Connection: close" in headers
    assert "Content-Length" in json.loads(body)["error"]
    status, payload = request(base, "/health")
    assert status == 200 and payload["status"] == "ok"


@pytest.mark.parametrize("body", [b"\xff", b"\xff\xfe\xfd"])
@pytest.mark.parametrize(
    "path",
    [
        "/jobs",
        "/coordinator/runs",
        "/coordinator/lease",
        "/coordinator/results",
        "/coordinator/complete",
    ],
)
def test_body_that_is_not_utf8_gets_400(http_stack, path, body):
    """Bytes that do not decode as JSON text are invalid JSON.

    ``json.loads`` raises ``UnicodeDecodeError`` for them, not
    ``JSONDecodeError``; it once escaped ``dispatch`` on every JSON POST
    route and dropped the connection.
    """
    base, _ = http_stack()
    req = urllib.request.Request(
        f"{base}{API_PREFIX}{path}", data=body,
        headers={"Content-Type": "application/json"}, method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as raised:
        urllib.request.urlopen(req, timeout=30)
    assert raised.value.code == 400
    error = json.loads(raised.value.read())["error"]
    assert error.startswith("request body is not valid JSON"), error
    status, payload = request(base, "/health")
    assert status == 200 and payload["status"] == "ok"
