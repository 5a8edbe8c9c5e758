"""Job manager semantics: the async queue between HTTP and the engine.

Pins the contracts the serve layer promises:

* lifecycle: ``pending -> running -> done`` with a coherent event log;
* the warm-store fast path (a fully cached spec finishes with zero
  simulations);
* cooperative cancellation between points — everything completed before
  the cancel stays persisted in the store;
* fault isolation — one failing job reports ``failed`` without wedging
  the pool for the next job;
* the JSONL journal: lifecycle survives a restart, prior-run entries
  come back marked ``restored``, and a job's terminal record is written
  before anyone can see the job terminal;
* the bounded job table: the newest ``RETAINED_JOBS`` terminal jobs
  stay, older ones live on only in the journal;
* one store and one grid per job: warm re-runs compute no point key;
* the untrusted-payload gate (``plugins`` rejected unless opted in).
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time

import pytest

import repro.exp.spec as spec_module
import repro.serve.jobs as jobs_module
from repro.exp import ExperimentSpec, ResultStore, SweepRunner
from repro.serve import JobManager, JobState, SimulationService, dispatch, spec_from_payload
from repro.serve.journal import Journal
from repro.sim.simulator import SimulationResult

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_STORE = os.path.join(REPO_ROOT, "benchmarks", "results", "cache", "results.jsonl")


def tiny_spec(**overrides) -> ExperimentSpec:
    base = dict(
        workloads=("web_search",), designs=("page",),
        capacities_mb=64, num_requests=2000,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


@pytest.fixture(scope="module")
def result_payload() -> dict:
    """One real simulated result, reused under many distinct points."""
    runner = SweepRunner(store=None)
    return runner.run_one(tiny_spec().points()[0]).to_dict()


def warm_store(tmp_path, result_payload, spec) -> ResultStore:
    """A store already holding every point of ``spec``."""
    store = ResultStore(str(tmp_path / "store"))
    result = SimulationResult.from_dict(result_payload)
    for point in spec.points():
        store.put(point, result)
    return store


def wait_terminal(job, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        snapshot = job.snapshot()
        if snapshot["state"] in ("done", "failed", "cancelled"):
            return snapshot
        time.sleep(0.02)
    raise AssertionError(f"job never finished: {job.snapshot()}")


def wait_for_point_event(job, timeout=60.0):
    """Block until the job has recorded at least one completed point."""
    cursor = 0
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for event in job.wait_events(cursor, timeout=1.0):
            cursor += 1
            if event["event"] == "point":
                return event
        if job.snapshot()["state"] in ("done", "failed", "cancelled"):
            raise AssertionError(f"job finished early: {job.snapshot()}")
    raise AssertionError("no point event arrived")


def make_manager(store, **kwargs) -> JobManager:
    return JobManager(store_dir=store.directory, workers=1, **kwargs)


@pytest.fixture()
def manager_factory(request):
    managers = []

    def build(store, **kwargs):
        manager = make_manager(store, **kwargs)
        managers.append(manager)
        return manager

    yield build
    for manager in managers:
        manager.shutdown(wait=False)


def test_warm_spec_runs_to_done_with_zero_simulations(
    tmp_path, result_payload, manager_factory
):
    spec = tiny_spec(seeds=(0, 1, 2))
    store = warm_store(tmp_path, result_payload, spec)
    manager = manager_factory(store)

    job = manager.submit_spec(spec)
    snapshot = wait_terminal(job)

    assert snapshot["state"] == JobState.DONE.value
    assert snapshot["error"] is None
    assert snapshot["progress"] == {
        "total": 3, "completed": 3, "served_from_store": 3, "simulated": 0,
    }
    # Event log shape: submitted, started, one per point, terminal.
    names = [event["event"] for event in job.events_since(0)]
    assert names[0] == "submitted"
    assert names[1] == "started"
    assert names.count("point") == 3
    assert names[-1] == "done"
    assert snapshot["started"] is not None
    assert snapshot["finished"] >= snapshot["started"]


def test_cancel_mid_sweep_keeps_completed_points(
    tmp_path, result_payload, manager_factory
):
    # Cold seeds: every point must actually simulate, giving the cancel
    # request a real between-points window to land in.
    spec = tiny_spec(seeds=(10, 11, 12, 13, 14, 15))
    store = ResultStore(str(tmp_path / "store"))
    manager = manager_factory(store)

    job = manager.submit_spec(spec)
    wait_for_point_event(job)
    manager.cancel(job.id)
    snapshot = wait_terminal(job)

    assert snapshot["state"] == JobState.CANCELLED.value
    completed = snapshot["progress"]["completed"]
    assert 0 < completed < 6
    # Between-points contract: exactly the completed points were
    # persisted — nothing lost, nothing after the cancel started.
    assert len(ResultStore(store.directory)) == completed
    assert job.events_since(0)[-1]["event"] == "cancelled"


def test_cancel_queued_job_never_runs(tmp_path, result_payload, manager_factory):
    spec = tiny_spec(seeds=(20, 21, 22))
    store = ResultStore(str(tmp_path / "store"))
    manager = manager_factory(store)

    # workers=1: the first job occupies the only worker, the second sits
    # in the queue where cancellation is immediate.
    running = manager.submit_spec(spec)
    queued = manager.submit_spec(tiny_spec(seeds=(30, 31)))
    cancelled = manager.cancel(queued.id)

    assert cancelled.snapshot()["state"] == JobState.CANCELLED.value
    assert cancelled.snapshot()["progress"]["completed"] == 0
    manager.cancel(running.id)
    wait_terminal(running)


def test_failed_job_isolates_fault_and_pool_survives(
    tmp_path, result_payload, manager_factory, monkeypatch
):
    spec = tiny_spec(seeds=(0, 1))
    store = warm_store(tmp_path, result_payload, spec)
    manager = manager_factory(store)

    class ExplodingRunner:
        def __init__(self, **kwargs):
            pass

        def run(self, spec):
            raise RuntimeError("simulated engine fault")

    import repro.serve.jobs as jobs_module
    monkeypatch.setattr(jobs_module, "SweepRunner", ExplodingRunner)
    failed = manager.submit_spec(spec)
    snapshot = wait_terminal(failed)
    assert snapshot["state"] == JobState.FAILED.value
    assert "RuntimeError: simulated engine fault" in snapshot["error"]

    # The worker thread survived: the next (warm) job runs clean.
    monkeypatch.undo()
    good = manager.submit_spec(spec)
    snapshot = wait_terminal(good)
    assert snapshot["state"] == JobState.DONE.value
    assert snapshot["progress"]["simulated"] == 0


def test_journal_survives_restart_with_restored_entries(
    tmp_path, result_payload, manager_factory
):
    spec = tiny_spec(seeds=(0, 1))
    store = warm_store(tmp_path, result_payload, spec)
    journal = str(tmp_path / "journal.jsonl")

    first = manager_factory(store, journal_path=journal)
    job = first.submit_spec(spec)
    wait_terminal(job)
    # The worker journals the terminal record just after the job reads
    # as terminal; joining it guarantees the record is written.
    first.shutdown()
    history = first.history()
    assert len(history) == 1
    assert history[0]["job"] == job.id
    assert history[0]["state"] == "done"
    assert history[0]["restored"] is False
    assert history[0]["served_from_store"] == 2

    # A restarted server (new run id) sees the old job, marked restored.
    second = manager_factory(store, journal_path=journal)
    restored = {entry["job"]: entry for entry in second.history()}
    assert restored[job.id]["restored"] is True
    assert restored[job.id]["state"] == "done"


def test_history_skips_a_torn_line_mid_journal(
    tmp_path, result_payload, manager_factory
):
    spec = tiny_spec(seeds=(0, 1))
    store = warm_store(tmp_path, result_payload, spec)
    journal = tmp_path / "journal.jsonl"
    manager = manager_factory(store, journal_path=str(journal))
    job = manager.submit_spec(spec)
    wait_terminal(job)
    manager.shutdown()  # the terminal record is written before the rewrite

    # A writer killed mid-append leaves a torn line; the records after
    # it (the job's start and end) must still count.
    lines = journal.read_text().splitlines(keepends=True)
    lines.insert(1, '{"ts": 1.0, "run": "dead", "jo\n')
    journal.write_text("".join(lines))
    history = manager_factory(store, journal_path=str(journal)).history()
    assert [(entry["job"], entry["state"]) for entry in history] == [
        (job.id, "done")
    ]


def test_unwritable_journal_degrades_without_hurting_jobs(
    tmp_path, result_payload, manager_factory, capfd
):
    """Journal loss costs restart visibility, never the job itself.

    A directory sitting where the journal file should be makes every
    append raise ``IsADirectoryError``; the manager must warn once,
    keep running jobs to completion, and serve an empty history.
    (A 0444 file is no obstacle to root, which CI runs as — a directory
    blocks ``open(..., "a")`` for every uid.)
    """
    spec = tiny_spec(seeds=(0, 1))
    store = warm_store(tmp_path, result_payload, spec)
    journal = tmp_path / "journal.jsonl"
    journal.mkdir()

    manager = manager_factory(store, journal_path=str(journal))
    first = wait_terminal(manager.submit_spec(spec))
    assert first["state"] == JobState.DONE.value
    second = wait_terminal(manager.submit_spec(spec))
    assert second["state"] == JobState.DONE.value

    assert manager.history() == []
    warnings = [
        line for line in capfd.readouterr().err.splitlines()
        if "job journal disabled" in line
    ]
    assert len(warnings) == 1  # warned once, then silently degraded


def test_cancel_racing_completion_journals_one_terminal_record(
    tmp_path, result_payload, manager_factory
):
    """finish() is first-transition-wins — and so is the journal.

    ``shutdown`` cancels a running job at the same time as the worker
    thread is finishing it; whichever side wins, the journal must hold
    exactly one terminal record per job (the loser's ``finish`` returns
    False and must not journal again).
    """
    spec = tiny_spec(seeds=(40, 41, 42, 43))  # cold: actually simulates
    store = ResultStore(str(tmp_path / "store"))
    journal = str(tmp_path / "journal.jsonl")
    manager = manager_factory(store, journal_path=journal)

    job = manager.submit_spec(spec)
    wait_for_point_event(job)
    manager.shutdown(wait=False)  # cancel races the running worker
    manager.shutdown(wait=True)   # join the pool; finish() no-ops now

    assert job.snapshot()["state"] in ("done", "cancelled")
    with open(journal) as handle:
        records = [json.loads(line) for line in handle]
    terminal = [
        record for record in records
        if record["job"] == job.id
        and record["event"] in ("done", "failed", "cancelled")
    ]
    assert len(terminal) == 1, terminal
    assert terminal[0]["event"] == job.snapshot()["state"]


def test_history_state_comes_from_the_latest_record(
    tmp_path, manager_factory
):
    # A server stopped while the job ran: its journal ends at
    # "started", so a restarted server must show it running.
    journal = tmp_path / "journal.jsonl"
    journal.write_text(
        '{"event": "submitted", "job": "dead-0001", "kind": "sweep", '
        '"run": "dead", "total": 2, "ts": 1.0}\n'
        '{"event": "started", "job": "dead-0001", "run": "dead", "ts": 2.0}\n'
    )
    store = ResultStore(str(tmp_path / "store"))
    history = manager_factory(store, journal_path=str(journal)).history()
    assert len(history) == 1
    assert history[0]["last_event"] == "started"
    assert history[0]["state"] == "running"
    assert history[0]["restored"] is True


def test_terminal_record_is_journaled_before_the_job_reads_terminal(
    tmp_path, result_payload, manager_factory, monkeypatch
):
    """The journal never lags the ``done`` event a client sees.

    A slow terminal journal append (0.2 s injected) must hold back the
    ``done`` event: a client that reads the journal right after the
    event streams in finds the job's terminal record.
    """
    real_append = Journal.append

    def slow_append(self, record):
        if record["event"] in ("done", "failed", "cancelled"):
            time.sleep(0.2)
        real_append(self, record)

    monkeypatch.setattr(Journal, "append", slow_append)
    spec = tiny_spec(seeds=(0, 1))
    store = warm_store(tmp_path, result_payload, spec)
    manager = manager_factory(
        store, journal_path=str(tmp_path / "journal.jsonl")
    )
    service = SimulationService(manager)
    job = manager.submit_spec(spec)

    stream = dispatch(service, "GET", f"/api/v1/jobs/{job.id}/events").stream
    events = [json.loads(line) for line in stream]
    assert events[-1]["event"] == "done"
    journal = dispatch(service, "GET", "/api/v1/journal").payload
    entries = {entry["job"]: entry for entry in journal["jobs"]}
    assert entries[job.id]["state"] == "done"
    assert entries[job.id]["served_from_store"] == 2


def test_job_table_keeps_only_the_newest_terminal_jobs(
    tmp_path, result_payload, manager_factory, monkeypatch
):
    monkeypatch.setattr(jobs_module, "RETAINED_JOBS", 4)
    spec = tiny_spec(seeds=(0, 1))
    store = warm_store(tmp_path, result_payload, spec)
    manager = manager_factory(
        store, journal_path=str(tmp_path / "journal.jsonl")
    )
    service = SimulationService(manager)
    ids = []
    for _ in range(10):
        job = manager.submit_spec(spec)
        assert wait_terminal(job)["state"] == JobState.DONE.value
        ids.append(job.id)

    listed = dispatch(service, "GET", "/api/v1/jobs").payload["jobs"]
    assert [snapshot["id"] for snapshot in listed] == ids[-4:]
    for route in ("", "/results", "/events"):
        response = dispatch(service, "GET", f"/api/v1/jobs/{ids[0]}{route}")
        assert response.status == 404, route
    journal = dispatch(service, "GET", "/api/v1/journal").payload["jobs"]
    assert [(entry["job"], entry["state"]) for entry in journal] == [
        (job_id, "done") for job_id in ids
    ]


def test_pending_and_running_jobs_are_never_dropped(
    tmp_path, result_payload, manager_factory, monkeypatch
):
    monkeypatch.setattr(jobs_module, "RETAINED_JOBS", 4)
    started, release = threading.Event(), threading.Event()

    class BlockingRunner:
        def __init__(self, **kwargs):
            pass

        def run(self, spec):
            started.set()
            assert release.wait(timeout=60)

    monkeypatch.setattr(jobs_module, "SweepRunner", BlockingRunner)
    store = ResultStore(str(tmp_path / "store"))
    manager = manager_factory(store)  # one worker
    running = manager.submit_spec(tiny_spec())
    assert started.wait(timeout=60)
    pending = manager.submit_spec(tiny_spec())
    # Cancelling queued jobs finishes them at once: ten terminal jobs
    # pass through the table while the other two never leave it.
    for _ in range(10):
        manager.cancel(manager.submit_spec(tiny_spec()).id)

    states = {job.id: job.snapshot()["state"] for job in manager.list()}
    assert states.pop(running.id) == JobState.RUNNING.value
    assert states.pop(pending.id) == JobState.PENDING.value
    assert list(states.values()) == [JobState.CANCELLED.value] * 4
    release.set()
    assert wait_terminal(running)["state"] == JobState.DONE.value
    assert wait_terminal(pending)["state"] == JobState.DONE.value


def test_warm_figure_job_reuses_its_grid_and_keys(
    tmp_path, manager_factory, monkeypatch
):
    # The figure's spec grids are built once and their keys memoised,
    # so a second warm job hashes nothing: not to run, not to serve its
    # results.
    store_dir = tmp_path / "store"
    store_dir.mkdir()
    shutil.copyfile(GOLDEN_STORE, store_dir / "results.jsonl")
    manager = manager_factory(ResultStore(str(store_dir)))
    service = SimulationService(manager)
    first = manager.submit_figure("table1")
    assert wait_terminal(first)["state"] == JobState.DONE.value

    real_point_key = spec_module.point_key
    hashed = []

    def counting_point_key(description):
        hashed.append(description)
        return real_point_key(description)

    monkeypatch.setattr(spec_module, "point_key", counting_point_key)
    second = manager.submit_figure("table1")
    snapshot = wait_terminal(second)
    assert snapshot["state"] == JobState.DONE.value
    assert snapshot["progress"]["served_from_store"] == snapshot["progress"]["total"] == 3
    results = dispatch(service, "GET", f"/api/v1/jobs/{second.id}/results").payload
    assert results["complete"]
    assert hashed == []


def test_unknown_figure_raises_before_enqueue(
    tmp_path, result_payload, manager_factory
):
    store = warm_store(tmp_path, result_payload, tiny_spec())
    manager = manager_factory(store)
    with pytest.raises(KeyError):
        manager.submit_figure("fig99_not_a_figure")
    assert manager.list() == []


def test_spec_payload_plugins_rejected_unless_opted_in():
    payload = tiny_spec().to_dict()
    payload["plugins"] = ["examples/custom_design.py"]
    with pytest.raises(ValueError, match="plugins"):
        spec_from_payload(payload)
    spec = spec_from_payload(payload, allow_plugins=True)
    assert spec.plugins == ("examples/custom_design.py",)


def test_spec_payload_must_be_object():
    with pytest.raises(ValueError, match="JSON object"):
        spec_from_payload(["not", "a", "spec"])
