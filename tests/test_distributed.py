"""The distributed-sweep protocol under deterministic fault injection.

Everything the coordinator/worker fleet promises, proven rather than
asserted:

* wire round-trip: points serialize to the coordinator and come back
  with identical store keys;
* happy path: a distributed run's store is record-for-record
  byte-identical to a single-process run — submitter store, coordinator
  store, and the real-socket HTTP stack included;
* worker crash mid-shard, lease expiry + reassignment, duplicate and
  conflicting deliveries, dropped completion responses, coordinator
  restart from the journal — each driven single-stepped on an injected
  clock, fully deterministic;
* a randomized chaos test (hypothesis): any seeded interleaving of
  drops, duplicated calls and killed workers still converges to the
  byte-identical store (the failing seed is the shrunk example).

Simulation points are tiny (2000 requests, ~20ms) so the whole suite
stays fast despite running real simulations throughout.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.exp import (
    DistributedBackend,
    ExperimentPoint,
    ExperimentSpec,
    ResultStore,
    SweepRunner,
    TransportError,
)
from repro.exp.backends.distributed import COORDINATOR_PREFIX
from repro.serve import API_PREFIX, Coordinator, dispatch
from repro.serve.coordinator import partition
from repro.serve.faults import (
    FaultSchedule,
    FaultyTransport,
    FaultyWorker,
    LocalTransport,
)
from repro.serve.worker import LeaseLost, WorkerKilled, WorkerLoop


def tiny_spec(**overrides) -> ExperimentSpec:
    base = dict(
        workloads=("web_search",), designs=("page",),
        capacities_mb=64, num_requests=2000,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def store_lines(directory) -> list:
    with open(ResultStore(str(directory)).path) as handle:
        return sorted(line for line in handle.read().splitlines() if line)


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """Serial-reference store for the canonical 6-point grid."""
    spec = tiny_spec(seeds=(0, 1, 2), designs=("page", "footprint"))
    directory = tmp_path_factory.mktemp("reference")
    SweepRunner(store=ResultStore(str(directory))).run(spec)
    return spec, store_lines(directory)


class _LeaseRecorder:
    """Pass-through transport that remembers granted lease ids."""

    def __init__(self, inner):
        self.inner = inner
        self.leases = []

    def call(self, method, path, payload=None):
        reply = self.inner.call(method, path, payload)
        if path.endswith("/lease") and reply.get("state") == "granted":
            self.leases.append(reply["lease"]["id"])
        return reply


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def drain(worker: WorkerLoop) -> int:
    """Run ``step`` until the queue is idle; shards processed."""
    shards = 0
    while worker.step():
        shards += 1
    return shards


def submit_points(transport, points, **extra) -> str:
    payload = {"points": [point.to_dict() for point in points], **extra}
    return transport.call("POST", f"{COORDINATOR_PREFIX}/runs", payload)["id"]


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------


class TestPointWireFormat:
    def test_json_round_trip_preserves_key(self):
        point = ExperimentPoint(
            workload="web_search", design="footprint", capacity_mb=128,
            num_requests=5000, seed=7,
            cache_kwargs={"fht_entries": 512},
            timing_kwargs={"stacked_latency_scale": 0.5},
        )
        wire = json.loads(json.dumps(point.to_dict()))
        rebuilt = ExperimentPoint.from_dict(wire)
        assert rebuilt == point
        assert rebuilt.key() == point.key()

    def test_unknown_fields_rejected(self):
        payload = ExperimentPoint(workload="web_search").to_dict()
        payload["evil"] = 1
        with pytest.raises(ValueError, match="unknown point fields"):
            ExperimentPoint.from_dict(payload)

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            ExperimentPoint.from_dict(["not", "a", "point"])

    def test_coordinator_prefix_lives_under_the_api(self):
        # The exp-layer constant and the serve-layer prefix must agree,
        # or workers would talk past the route table.
        assert COORDINATOR_PREFIX.startswith(API_PREFIX)


class TestPartition:
    def test_round_robin_disjoint_and_covering(self):
        points = tuple(tiny_spec(seeds=tuple(range(7))).points())
        parts = partition(points, 3)
        assert len(parts) == 3
        flat = [point for part in parts for point in part]
        assert sorted(p.key() for p in flat) == sorted(p.key() for p in points)
        assert parts[0] == points[0::3]

    def test_never_more_shards_than_points(self):
        points = tuple(tiny_spec(seeds=(0, 1)).points())
        assert len(partition(points, 16)) == 2
        assert len(partition(points, 0)) == 1


# ----------------------------------------------------------------------
# Happy path
# ----------------------------------------------------------------------


class TestDistributedParity:
    def test_matches_serial_reference_byte_for_byte(
        self, tmp_path, serve_stack, worker_fleet, reference
    ):
        spec, reference_lines = reference
        service = serve_stack(store_dir=str(tmp_path / "coord"))
        transport = LocalTransport(service)
        worker_fleet(WorkerLoop(transport, worker_id="w0", poll_seconds=0.01))

        # ``execute`` submits the run; the fleet serves it while the
        # submitter-side runner persists results exactly like a local
        # backend would.
        backend = DistributedBackend(transport, shards=3, poll_seconds=0.01)
        dist_store = ResultStore(str(tmp_path / "dist"))
        SweepRunner(store=dist_store, backend=backend).run(spec)
        assert store_lines(tmp_path / "dist") == reference_lines
        # The coordinator's own store folded byte-identically too.
        assert store_lines(tmp_path / "coord") == reference_lines
        (snapshot,) = transport.call(
            "GET", f"{COORDINATOR_PREFIX}/runs"
        )["runs"]
        assert snapshot["state"] == "done"
        assert snapshot["shards"] == {"pending": 0, "leased": 0, "done": 3}

    def test_full_http_stack_round_trip(
        self, tmp_path, http_stack, worker_fleet, reference
    ):
        spec, reference_lines = reference
        base_url, _service = http_stack(store_dir=str(tmp_path / "coord"))
        worker_fleet(
            WorkerLoop(base_url, worker_id="http-w0", poll_seconds=0.01),
            WorkerLoop(base_url, worker_id="http-w1", poll_seconds=0.01),
        )

        backend = DistributedBackend(base_url, shards=2, poll_seconds=0.01)
        dist_store = ResultStore(str(tmp_path / "dist"))
        SweepRunner(store=dist_store, backend=backend).run(spec)
        assert store_lines(tmp_path / "dist") == reference_lines
        assert store_lines(tmp_path / "coord") == reference_lines

    def test_key_duplicate_points_fold_once(self, tmp_path, serve_stack):
        service = serve_stack(store_dir=str(tmp_path / "coord"))
        transport = LocalTransport(service)
        point = ExperimentPoint(
            workload="web_search", design="page", capacity_mb=64,
            num_requests=2000,
        )
        run_id = submit_points(transport, [point, point])
        drain(WorkerLoop(transport))
        page = transport.call(
            "GET", f"{COORDINATOR_PREFIX}/runs/{run_id}/results?since=0"
        )
        assert page["state"] == "done"
        assert page["total"] == 1
        assert len(page["results"]) == 1


# ----------------------------------------------------------------------
# Faults, single-stepped and deterministic
# ----------------------------------------------------------------------


class TestWorkerCrashAndReassignment:
    def test_mid_shard_crash_then_lease_expiry_reassigns(
        self, tmp_path, serve_stack, reference
    ):
        spec, reference_lines = reference
        clock = FakeClock()
        service = serve_stack(
            store_dir=str(tmp_path / "coord"), clock=clock, lease_seconds=60
        )
        transport = LocalTransport(service)
        run_id = submit_points(transport, spec.points(), shards=2)

        # Shards hold 3 points; the faulty worker dies after delivering 2.
        crasher = FaultyWorker(transport, worker_id="crasher", kill_after=2)
        with pytest.raises(WorkerKilled):
            crasher.step()
        snapshot = transport.call("GET", f"{COORDINATOR_PREFIX}/runs/{run_id}")
        assert snapshot["shards"] == {"pending": 1, "leased": 1, "done": 0}

        # Within the lease window the shard is NOT up for grabs: a
        # second worker gets the other shard, then goes idle.
        survivor = WorkerLoop(transport, worker_id="survivor")
        assert survivor.step() is True
        assert survivor.step() is False

        # Past the deadline the crashed shard is reassigned and the
        # survivor redoes it (2 redeliveries count as duplicates).
        clock.advance(61)
        assert drain(survivor) == 1
        snapshot = transport.call("GET", f"{COORDINATOR_PREFIX}/runs/{run_id}")
        assert snapshot["state"] == "done"
        assert snapshot["reassigned"] == 1
        assert snapshot["duplicates"] == 2
        assert store_lines(tmp_path / "coord") == reference_lines

    def test_expired_lease_deliveries_are_stale(self, tmp_path, serve_stack):
        clock = FakeClock()
        service = serve_stack(
            store_dir=str(tmp_path / "coord"), clock=clock, lease_seconds=30
        )
        transport = LocalTransport(service)
        points = tuple(tiny_spec(seeds=(0, 1)).points())
        submit_points(transport, points, shards=1)

        lease = transport.call(
            "POST", f"{COORDINATOR_PREFIX}/lease", {"worker": "slow"}
        )["lease"]
        clock.advance(31)
        reply = transport.call(
            "POST", f"{COORDINATOR_PREFIX}/results",
            {"lease": lease["id"], "key": points[0].key(), "result": {"x": 1}},
        )
        assert reply["state"] == "stale"
        # ... and the worker loop surfaces that as LeaseLost.
        worker = WorkerLoop(transport, worker_id="slow2")
        granted = transport.call("POST", f"{COORDINATOR_PREFIX}/lease", {})
        clock.advance(31)
        with pytest.raises(LeaseLost):
            worker._run_shard(
                granted["lease"]["id"],
                [ExperimentPoint.from_dict(p) for p in granted["lease"]["points"]],
                (),
            )


class TestDeliverySemantics:
    def test_duplicate_deliveries_are_idempotent(
        self, tmp_path, serve_stack, fault_schedule, reference
    ):
        spec, reference_lines = reference
        service = serve_stack(store_dir=str(tmp_path / "coord"))
        # Duplicate every result delivery; drop nothing.
        schedule = fault_schedule(
            seed=1234, duplicate=1.0,
            match=lambda method, path: path.endswith("/results"),
        )
        transport = FaultyTransport(LocalTransport(service), schedule)
        run_id = submit_points(
            LocalTransport(service), spec.points(), shards=2
        )
        drain(WorkerLoop(transport, worker_id="dup"))

        snapshot = LocalTransport(service).call(
            "GET", f"{COORDINATOR_PREFIX}/runs/{run_id}"
        )
        assert snapshot["state"] == "done"
        assert snapshot["duplicates"] == 6  # every point delivered twice
        assert store_lines(tmp_path / "coord") == reference_lines

    def test_conflicting_redelivery_fails_the_run(self, tmp_path, serve_stack):
        service = serve_stack(store_dir=str(tmp_path / "coord"))
        transport = LocalTransport(service)
        points = tuple(tiny_spec(seeds=(0, 1)).points())
        run_id = submit_points(transport, points, shards=1)
        lease = transport.call(
            "POST", f"{COORDINATOR_PREFIX}/lease", {}
        )["lease"]
        key = points[0].key()
        transport.call(
            "POST", f"{COORDINATOR_PREFIX}/results",
            {"lease": lease["id"], "key": key, "result": {"v": 1}},
        )
        with pytest.raises(TransportError) as excinfo:
            transport.call(
                "POST", f"{COORDINATOR_PREFIX}/results",
                {"lease": lease["id"], "key": key, "result": {"v": 2}},
            )
        assert excinfo.value.status == 409
        snapshot = transport.call("GET", f"{COORDINATOR_PREFIX}/runs/{run_id}")
        assert snapshot["state"] == "failed"
        assert "conflicting result" in snapshot["error"]

    def test_incomplete_shard_cannot_fold(self, tmp_path, serve_stack):
        service = serve_stack(store_dir=str(tmp_path / "coord"))
        transport = LocalTransport(service)
        submit_points(transport, tiny_spec(seeds=(0, 1)).points(), shards=1)
        lease = transport.call(
            "POST", f"{COORDINATOR_PREFIX}/lease", {}
        )["lease"]
        with pytest.raises(TransportError) as excinfo:
            transport.call(
                "POST", f"{COORDINATOR_PREFIX}/complete", {"lease": lease["id"]}
            )
        assert excinfo.value.status == 409
        assert "incomplete" in str(excinfo.value)

    def test_dropped_complete_response_is_absorbed(
        self, tmp_path, serve_stack, fault_schedule, reference
    ):
        """The nastiest ambiguity: the fold happened, the reply was lost.

        The worker abandons the shard; a retried/late ``complete`` on
        the same lease is acknowledged as duplicate, and the run still
        finishes byte-identical.
        """
        spec, reference_lines = reference
        service = serve_stack(store_dir=str(tmp_path / "coord"))
        clean = LocalTransport(service)
        schedule = fault_schedule(
            seed=99, drop_response=1.0, max_faults=1,
            match=lambda method, path: path.endswith("/complete"),
        )
        recorder = _LeaseRecorder(clean)
        transport = FaultyTransport(recorder, schedule)
        run_id = submit_points(clean, spec.points(), shards=2)
        worker = WorkerLoop(transport, worker_id="unlucky")
        with pytest.raises(TransportError, match="response dropped"):
            worker.step()
        # The shard folded server-side despite the lost reply ...
        snapshot = clean.call("GET", f"{COORDINATOR_PREFIX}/runs/{run_id}")
        assert snapshot["shards"]["done"] == 1
        # ... so a retried ``complete`` on the same lease is acknowledged
        # as a duplicate rather than treated as stale or re-folded.
        retry = clean.call(
            "POST", f"{COORDINATOR_PREFIX}/complete",
            {"lease": recorder.leases[0]},
        )
        assert retry["state"] == "duplicate"
        drain(worker)
        snapshot = clean.call("GET", f"{COORDINATOR_PREFIX}/runs/{run_id}")
        assert snapshot["state"] == "done"
        assert store_lines(tmp_path / "coord") == reference_lines


class TestCoordinatorRestart:
    def test_restart_resumes_from_journal_and_store(
        self, tmp_path, serve_stack, reference
    ):
        spec, reference_lines = reference
        store_dir = str(tmp_path / "coord")
        journal = str(tmp_path / "coordinator_journal.jsonl")
        service = serve_stack(store_dir=store_dir, journal_path=journal)
        transport = LocalTransport(service)
        run_id = submit_points(transport, spec.points(), shards=3)

        # Fold exactly one shard, then "crash" the coordinator.
        worker = WorkerLoop(transport, worker_id="w0")
        assert worker.step() is True

        restarted = Coordinator(store_dir=store_dir, journal_path=journal)
        snapshot = restarted.run_snapshot(run_id)
        assert snapshot["restored"] is True
        assert snapshot["state"] == "running"
        assert snapshot["shards"] == {"pending": 2, "leased": 0, "done": 1}
        assert snapshot["folded"] == 2  # the folded shard's results reloaded

        # Point the running service at the restarted coordinator and
        # finish the run with a fresh worker.
        service.coordinator = restarted
        transport2 = LocalTransport(service)
        drain(WorkerLoop(transport2, worker_id="w1"))
        final = restarted.run_snapshot(run_id)
        assert final["state"] == "done"
        assert final["folded"] == 6
        assert store_lines(tmp_path / "coord") == reference_lines
        # The submitter-facing results log exposes every key exactly once.
        page = transport2.call(
            "GET", f"{COORDINATOR_PREFIX}/runs/{run_id}/results?since=0"
        )
        keys = [row["key"] for row in page["results"]]
        assert sorted(keys) == sorted(p.key() for p in spec.points())

    def test_restore_skips_a_torn_line_mid_journal(
        self, tmp_path, serve_stack
    ):
        store_dir = str(tmp_path / "coord")
        journal = tmp_path / "journal.jsonl"
        service = serve_stack(store_dir=store_dir, journal_path=str(journal))
        transport = LocalTransport(service)
        points = tuple(tiny_spec(seeds=(0, 1)).points())
        run_id = submit_points(transport, points, shards=2)
        drain(WorkerLoop(transport))

        # A writer killed mid-append leaves a torn line; every record
        # after it (the folded shards, the run's end) must still count.
        lines = journal.read_text().splitlines(keepends=True)
        lines.insert(1, '{"ts": 1.0, "event": "sha\n')
        journal.write_text("".join(lines))
        restarted = Coordinator(store_dir=store_dir, journal_path=str(journal))
        snapshot = restarted.run_snapshot(run_id)
        assert snapshot["state"] == "done"
        assert snapshot["shards"] == {"pending": 0, "leased": 0, "done": 2}

    def test_unwritable_journal_degrades_without_hurting_runs(
        self, tmp_path, serve_stack, reference, capfd
    ):
        """Journal loss costs restart durability, never the run itself.

        A directory where the journal file should be makes every append
        fail; the coordinator must start, warn once, and still fold the
        run into a byte-identical store.
        """
        spec, reference_lines = reference
        store_dir = str(tmp_path / "coord")
        journal = tmp_path / "coordinator_journal.jsonl"
        journal.mkdir()
        service = serve_stack(store_dir=store_dir, journal_path=str(journal))
        transport = LocalTransport(service)
        run_id = submit_points(transport, spec.points(), shards=3)
        drain(WorkerLoop(transport, worker_id="w0"))

        snapshot = transport.call("GET", f"{COORDINATOR_PREFIX}/runs/{run_id}")
        assert snapshot["state"] == "done"
        assert snapshot["folded"] == 6
        assert store_lines(tmp_path / "coord") == reference_lines
        warnings = [
            line for line in capfd.readouterr().err.splitlines()
            if "coordinator journal disabled" in line
        ]
        assert len(warnings) == 1

    def test_restart_with_compacted_store_reruns_the_shard(
        self, tmp_path, serve_stack
    ):
        store_dir = str(tmp_path / "coord")
        journal = str(tmp_path / "journal.jsonl")
        service = serve_stack(store_dir=store_dir, journal_path=journal)
        transport = LocalTransport(service)
        points = tuple(tiny_spec(seeds=(0, 1)).points())
        run_id = submit_points(transport, points, shards=1)
        drain(WorkerLoop(transport))

        # Lose the store (journal still says "shard 0 done"): the
        # restored coordinator must re-run, not serve nothing.
        os.remove(ResultStore(store_dir).path)
        restarted = Coordinator(store_dir=store_dir, journal_path=journal)
        snapshot = restarted.run_snapshot(run_id)
        assert snapshot["shards"]["pending"] == 1
        assert snapshot["state"] == "running"


class TestSubmissionValidation:
    def test_bad_payloads_rejected(self, tmp_path, serve_stack):
        service = serve_stack(store_dir=str(tmp_path / "coord"))
        transport = LocalTransport(service)
        for payload in (
            {"points": []},
            {"points": "nope"},
            {},
        ):
            with pytest.raises(TransportError) as excinfo:
                transport.call("POST", f"{COORDINATOR_PREFIX}/runs", payload)
            assert excinfo.value.status == 400

    @pytest.mark.parametrize("route, payload", [
        ("runs", {"shards": "x"}),
        ("runs", {"shards": {"a": 1}}),
        ("runs", {"lease_seconds": "soon"}),
        ("runs", {"lease_seconds": "nan"}),
        ("runs", {"points": [{"workload": "web_search", "capacity_mb": 64.5}]}),
        ("runs", {"points": [{"workload": "web_search", "scale": 0}]}),
        ("lease", {"worker": 5}),
        ("lease", {"worker": [1]}),
    ], ids=[
        "shards-string", "shards-object", "lease-seconds-string",
        "lease-seconds-nan", "fractional-capacity", "zero-scale",
        "worker-int", "worker-list",
    ])
    def test_malformed_input_is_400_and_server_stays_healthy(
        self, tmp_path, serve_stack, route, payload
    ):
        service = serve_stack(store_dir=str(tmp_path / "coord"))
        transport = LocalTransport(service)
        points = tiny_spec(seeds=(0, 1)).points()
        # A live run with one shard leased to a named worker: a bad
        # name would land in the same run as a good one.
        submit_points(transport, points, shards=2)
        transport.call("POST", f"{COORDINATOR_PREFIX}/lease", {"worker": "w1"})

        if route == "runs":
            payload = {"points": [point.to_dict() for point in points], **payload}
        response = dispatch(
            service, "POST", f"{COORDINATOR_PREFIX}/{route}",
            body=json.dumps(payload).encode(),
        )
        assert response.status == 400, response.payload
        for path in (f"{API_PREFIX}/health", f"{COORDINATOR_PREFIX}/runs"):
            assert dispatch(service, "GET", path).status == 200

    def test_unknown_design_rejected(self, tmp_path, serve_stack):
        service = serve_stack(store_dir=str(tmp_path / "coord"))
        transport = LocalTransport(service)
        point = ExperimentPoint(workload="web_search").to_dict()
        point["design"] = "not_a_design"
        with pytest.raises(TransportError, match="invalid run"):
            transport.call(
                "POST", f"{COORDINATOR_PREFIX}/runs", {"points": [point]}
            )

    def test_plugins_gated_like_job_submission(self, tmp_path, serve_stack):
        service = serve_stack(store_dir=str(tmp_path / "coord"))
        transport = LocalTransport(service)
        point = ExperimentPoint(workload="web_search").to_dict()
        with pytest.raises(TransportError, match="plugins are disabled"):
            transport.call(
                "POST", f"{COORDINATOR_PREFIX}/runs",
                {"points": [point], "plugins": ["evil.py"]},
            )

    def test_unknown_run_is_404(self, tmp_path, serve_stack):
        service = serve_stack(store_dir=str(tmp_path / "coord"))
        transport = LocalTransport(service)
        with pytest.raises(TransportError) as excinfo:
            transport.call("GET", f"{COORDINATOR_PREFIX}/runs/run-nope")
        assert excinfo.value.status == 404

    def test_backend_timeout_when_no_workers(self, tmp_path, serve_stack):
        service = serve_stack(store_dir=str(tmp_path / "coord"))
        backend = DistributedBackend(
            LocalTransport(service), poll_seconds=0, timeout_seconds=0.05
        )
        points = tiny_spec(seeds=(5,)).points()
        with pytest.raises(TransportError, match="timed out"):
            list(backend.execute(points))


# ----------------------------------------------------------------------
# Randomized chaos: any interleaving converges byte-identically
# ----------------------------------------------------------------------


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    drop=st.floats(min_value=0.0, max_value=0.25),
    duplicate=st.floats(min_value=0.0, max_value=0.25),
    kill_after=st.integers(min_value=1, max_value=4),
)
def test_chaos_interleavings_converge_to_reference(
    tmp_path_factory, reference, seed, drop, duplicate, kill_after
):
    """Property: faults change the schedule, never the stored bytes.

    A faulty fleet (seeded drops/duplicates on every coordinator call,
    plus one worker that crashes mid-run) is followed by a clean drain
    worker; whatever the interleaving, the coordinator store must end
    byte-identical to the serial reference.  Shrinks to (and prints)
    the seed/fault-rate combination on failure.
    """
    from repro.serve import JobManager, SimulationService

    spec, reference_lines = reference
    tmp_path = tmp_path_factory.mktemp("chaos")
    store_dir = str(tmp_path / "coord")
    manager = JobManager(store_dir=store_dir, workers=1)
    try:
        clock = FakeClock()
        coordinator = Coordinator(
            store_dir=store_dir, lease_seconds=60, clock=clock
        )
        service = SimulationService(manager, coordinator=coordinator)
        clean = LocalTransport(service)
        run_id = submit_points(clean, spec.points(), shards=3)

        # Faults are bounded so the run provably converges once the
        # budget is spent; every decision replays from the seed.
        schedule = FaultSchedule(
            seed, drop=drop, drop_response=drop / 2,
            duplicate=duplicate, max_faults=8,
        )
        faulty = FaultyTransport(clean, schedule, sleep=lambda _s: None)
        crasher = FaultyWorker(
            faulty, worker_id="crasher", kill_after=kill_after
        )
        chaotic = WorkerLoop(faulty, worker_id="chaotic")
        for worker in (crasher, chaotic):
            # Step each worker until it dies, errors dry, or goes idle;
            # leases they abandon expire on the fake clock below.
            for _ in range(8):
                try:
                    if not worker.step():
                        break
                except (WorkerKilled, LeaseLost, TransportError):
                    continue

        # Expire whatever the faulty fleet left leased, then drain
        # cleanly: the protocol must finish from any intermediate state.
        clock.advance(61)
        drain(WorkerLoop(clean, worker_id="drain"))
        context = (
            f"seed={seed} drop={drop} duplicate={duplicate} "
            f"kill_after={kill_after}"
        )
        snapshot = clean.call("GET", f"{COORDINATOR_PREFIX}/runs/{run_id}")
        assert snapshot["state"] == "done", (context, snapshot)
        assert store_lines(tmp_path / "coord") == reference_lines, context
    finally:
        manager.shutdown(wait=False)
