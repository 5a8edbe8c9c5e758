"""Async job manager: the queue between the HTTP API and the sweep engine.

A :class:`Job` is one submitted unit of work — an
:class:`~repro.exp.spec.ExperimentSpec` sweep or a registered figure
render — owned by a :class:`JobManager` that runs jobs on a bounded
worker pool.  Jobs move ``pending -> running -> done | failed |
cancelled``; cancellation is cooperative and lands *between* grid
points (a point mid-simulation finishes and is persisted, nothing after
it starts), so a cancelled job leaves the store exactly as far along as
its progress said.

Every job appends progress events (one per grid point, plus lifecycle
transitions) to an in-memory log that HTTP clients poll or stream; the
optional JSONL *journal* additionally persists lifecycle transitions so
a restarted server can show what previous runs did (visibility only —
jobs themselves are not resumed; the result store already holds every
point they completed, which is the real restart currency).  The job
table is bounded: it keeps every pending and running job plus the
newest :data:`RETAINED_JOBS` terminal ones, and the journal keeps the
history of the jobs it drops.

The manager deliberately reuses the engine untouched: it owns one
:class:`~repro.exp.store.ResultStore` over the shared directory, which
every job run, results fetch and health probe shares (the store's
in-process lock makes that safe, and the file is parsed again only
when another writer changes it), and each job builds a fresh
execution backend, so a job behaves byte-for-byte like the equivalent
``python -m repro sweep`` invocation.
"""

from __future__ import annotations

import secrets
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from enum import Enum
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.exp import ExperimentSpec, ResultStore, SweepRunner
from repro.exp.spec import ExperimentPoint
from repro.obs.log import get_logger
from repro.obs.metrics import registry
from repro.obs.spans import tracer
from repro.serve.journal import Journal

log = get_logger("serve.jobs")

#: Terminal jobs the manager keeps in its table.  Past this, the oldest
#: terminal job leaves the table (``GET /api/v1/jobs`` stops listing it,
#: and its id gets a 404) once its terminal record is journaled; the
#: journal keeps its history.  Pending and running jobs always stay.
RETAINED_JOBS = 256


class JobState(str, Enum):
    """Lifecycle of a job; terminal states are done/failed/cancelled."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


#: Job state after each non-terminal journal event; a terminal event
#: (done, failed, cancelled) is its own state.
_JOURNAL_STATES = {
    "submitted": JobState.PENDING.value,
    "started": JobState.RUNNING.value,
}


class JobCancelled(Exception):
    """Raised inside a job's progress callback to stop between points."""


class Job:
    """One submitted work item and its observable state.

    All mutation happens under :attr:`_cond`'s lock; every event append
    notifies waiters, which is what lets the events endpoint stream a
    job live.  Snapshots are plain JSON-ready dicts — the shape the API
    serves.
    """

    def __init__(
        self,
        job_id: str,
        kind: str,
        detail: str,
        points: Tuple[ExperimentPoint, ...],
        spec: Optional[ExperimentSpec] = None,
        figure: Optional[str] = None,
    ) -> None:
        self.id = job_id
        self.kind = kind  # "sweep" | "figure"
        self.detail = detail
        self.points = points
        self.spec = spec
        self.figure = figure
        self.state = JobState.PENDING
        self.error: Optional[str] = None
        self.created = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.total = len(points)
        self.completed = 0
        self.served_from_store = 0
        self.simulated = 0
        self.artifacts: List[Dict[str, str]] = []
        self._cancel = threading.Event()
        self._cond = threading.Condition()
        self.events: List[Dict[str, Any]] = []
        self._event("submitted", kind=kind, detail=detail, total=self.total)

    # -- mutation (manager/worker side) --------------------------------

    def _event(self, name: str, **data: Any) -> None:
        with self._cond:
            self.events.append(
                {"seq": len(self.events), "ts": time.time(), "event": name, **data}
            )
            self._cond.notify_all()

    def request_cancel(self) -> None:
        self._cancel.set()

    @property
    def cancel_requested(self) -> bool:
        return self._cancel.is_set()

    # Each state change appends its event inside the same critical
    # section (``_cond`` is reentrant), so a reader never sees a state
    # whose event is not logged yet: once a job reads as terminal, its
    # terminal event is already in the log for streams to deliver.

    def mark_started(self) -> bool:
        """Move to running; False (and no change) if already finished."""
        with self._cond:
            if self.state.terminal:
                return False
            self.state = JobState.RUNNING
            self.started = time.time()
            self._event("started")
        return True

    def record_point(self, label: str, cached: bool, completed: int) -> None:
        with self._cond:
            self.completed = completed
            if cached:
                self.served_from_store += 1
            else:
                self.simulated += 1
            self._event(
                "point", label=label, served_from_store=cached,
                completed=completed, total=self.total,
            )

    def finish(self, state: JobState, error: Optional[str] = None) -> bool:
        """Move to a terminal state once; later calls are ignored."""
        with self._cond:
            if self.state.terminal:
                return False
            self.state = state
            self.error = error
            self.finished = time.time()
            self._event(state.value, error=error)
        return True

    # -- observation (API side) ----------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The job as the API serves it (JSON-ready, self-contained)."""
        with self._cond:
            return {
                "id": self.id,
                "kind": self.kind,
                "detail": self.detail,
                "state": self.state.value,
                "error": self.error,
                "created": self.created,
                "started": self.started,
                "finished": self.finished,
                "progress": {
                    "total": self.total,
                    "completed": self.completed,
                    "served_from_store": self.served_from_store,
                    "simulated": self.simulated,
                },
                "events": len(self.events),
            }

    def events_since(self, since: int) -> List[Dict[str, Any]]:
        with self._cond:
            return list(self.events[since:])

    def wait_events(self, since: int, timeout: float) -> List[Dict[str, Any]]:
        """Events from ``since`` on, blocking up to ``timeout`` for one."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while len(self.events) <= since:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self.state.terminal:
                    break
                self._cond.wait(remaining)
            return list(self.events[since:])

    def exhausted(self, since: int) -> bool:
        """True once the job is terminal and no event remains from ``since``."""
        with self._cond:
            return self.state.terminal and len(self.events) <= since


class JobManager:
    """Bounded worker pool executing submitted jobs against one store.

    Parameters
    ----------
    store_dir:
        Shared result store directory (None = the engine default).
    workers:
        Concurrent jobs (the pool bound); further submissions queue as
        ``pending``.
    jobs:
        Worker *processes per job* for simulated points — forwarded to
        :func:`~repro.exp.backends.make_backend` exactly like the
        sweep CLI's ``--jobs``.
    journal_path:
        Optional JSONL :class:`~repro.serve.journal.Journal` of job
        lifecycle transitions.  Restart visibility: :meth:`history`
        reads it back, including previous server runs' entries, and
        jobs dropped from the table past :data:`RETAINED_JOBS`.
    """

    def __init__(
        self,
        store_dir: Optional[str] = None,
        workers: int = 2,
        jobs: int = 1,
        use_cache: bool = True,
        journal_path: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be positive")
        if jobs < 0:
            raise ValueError("jobs must be non-negative")
        self.store_dir = store_dir
        self.workers = workers
        self.jobs = jobs
        self.use_cache = use_cache
        self.journal = Journal(journal_path, "job")
        self.store = ResultStore(store_dir)
        self.run_id = secrets.token_hex(4)
        self._sequence = 0
        self._jobs: Dict[str, Job] = {}
        self._futures: Dict[str, Any] = {}
        self._terminal: Deque[str] = deque()  # retained ids, oldest first
        self._lock = threading.Lock()
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        reg = registry()
        self._queue_depth = reg.gauge(
            "repro_serve_queue_depth", "submitted jobs not yet started"
        )
        self._running_gauge = reg.gauge(
            "repro_serve_jobs_running", "jobs currently executing"
        )

    # -- submission ----------------------------------------------------

    def submit_spec(self, spec: ExperimentSpec) -> Job:
        """Queue a sweep over ``spec``; returns the pending job."""
        points = spec.points()
        detail = (
            f"{len(points)} point(s): workloads={','.join(spec.workloads)} "
            f"designs={','.join(spec.designs)}"
        )
        return self._enqueue(Job(
            self._next_id(), "sweep", detail, points, spec=spec,
        ))

    def submit_figure(self, name: str) -> Job:
        """Queue a figure render (missing points simulate, then render)."""
        # Late import: the figure registry pulls in the full reporting
        # stack, which jobs-only users (and tests) need not pay for.
        from repro.reporting import get_figure

        figure = get_figure(name)  # raises KeyError for unknown names
        return self._enqueue(Job(
            self._next_id(), "figure", figure.title, figure.points(),
            figure=name,
        ))

    def _next_id(self) -> str:
        with self._lock:
            self._sequence += 1
            return f"{self.run_id}-{self._sequence:04d}"

    def _enqueue(self, job: Job) -> Job:
        with self._lock:
            self._jobs[job.id] = job
        self._journal(job, "submitted", kind=job.kind, detail=job.detail,
                      total=job.total)
        self._queue_depth.inc()
        tracer().event("job.submit", job=job.id, kind=job.kind,
                       total=job.total)
        log.debug("job submitted", job=job.id, kind=job.kind,
                  total=job.total)
        future = self._pool.submit(self._execute, job)
        with self._lock:
            self._futures[job.id] = future
        return job

    # -- observation / control -----------------------------------------

    def get(self, job_id: str) -> Job:
        with self._lock:
            if job_id not in self._jobs:
                raise KeyError(f"unknown job {job_id!r}")
            return self._jobs[job_id]

    def list(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def cancel(self, job_id: str) -> Job:
        """Request cancellation; stops between points, or immediately
        for a job still waiting in the queue."""
        job = self.get(job_id)
        job.request_cancel()
        with self._lock:
            future = self._futures.get(job_id)
        if future is not None and future.cancel():
            # Never started: the worker will not run, so finish it here.
            self._queue_depth.dec()
            self._finish(job, JobState.CANCELLED)
        return job

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work; cancel queued jobs; optionally wait."""
        with self._lock:
            jobs = list(self._jobs.values())
        for job in jobs:
            job.request_cancel()
        self._pool.shutdown(wait=wait, cancel_futures=True)
        for job in jobs:
            self._finish(job, JobState.CANCELLED)
        self._queue_depth.set(0)
        self._running_gauge.set(0)

    # -- execution -----------------------------------------------------

    def _execute(self, job: Job) -> None:
        self._queue_depth.dec()
        with job._cond:
            # Starting and its journal record are one step, like
            # finishing (see _finish), so the journal lists a job's
            # records in the order its state took them.
            started = not job.cancel_requested and job.mark_started()
            if started:
                self._journal(job, "started")
        if not started:
            self._finish(job, JobState.CANCELLED)
            return
        self._running_gauge.inc()
        log.debug("job started", job=job.id, kind=job.kind)

        def progress(tick) -> None:
            job.record_point(tick.point.label(), tick.cached, tick.completed)
            if job.cancel_requested:
                # Raised *after* the tick's result was persisted: the
                # store keeps everything completed so far, and the
                # backend abandons points that have not started.
                raise JobCancelled()

        try:
            with tracer().span(
                "job.run", job=job.id, kind=job.kind, total=job.total
            ) as span:
                error = None
                try:
                    if job.kind == "figure":
                        from repro.reporting import run_figure

                        output = run_figure(
                            job.figure,
                            store=self.store,
                            jobs=self.jobs,
                            use_cache=self.use_cache,
                            progress=progress,
                        )
                        job.artifacts = [
                            {"name": artifact.name, "text": artifact.text}
                            for artifact in output.artifacts
                        ]
                    else:
                        runner = SweepRunner(
                            store=self.store,
                            jobs=self.jobs,
                            use_cache=self.use_cache,
                            progress=progress,
                        )
                        runner.run(job.spec)
                    state = JobState.DONE
                except JobCancelled:
                    state = JobState.CANCELLED
                except Exception as failure:  # noqa: BLE001 - fault isolation:
                    # one bad point (or a renderer bug) fails *this* job;
                    # the worker thread survives for the next one.
                    state = JobState.FAILED
                    error = f"{type(failure).__name__}: {failure}"
                self._finish(job, state, error)
                span.annotate(state=job.state.value)
        finally:
            self._running_gauge.dec()
        registry().counter(
            "repro_serve_jobs_total",
            "jobs reaching a terminal state",
            kind=job.kind,
            state=job.state.value,
        ).inc()
        log.debug("job finished", job=job.id, state=job.state.value)

    def _finish(
        self, job: Job, state: JobState, error: Optional[str] = None
    ) -> None:
        """Finish ``job``, journal its terminal record and retire it, as one step.

        All three run under the job's lock, so whoever sees the job
        terminal (its state, or its terminal event on a stream) also
        finds the terminal record in the journal — the only record of
        the job once it leaves the table — and a table already trimmed
        to :data:`RETAINED_JOBS` terminal jobs.  :meth:`Job.finish` is
        first-transition-wins, so of a run, a cancel and a shutdown
        racing to finish one job, the losers journal nothing.  Lock
        order: a job's lock, then the manager's, never the reverse.
        """
        with job._cond:
            if not job.finish(state, error):
                return
            self._journal_terminal(job)
            with self._lock:
                self._terminal.append(job.id)
                while len(self._terminal) > RETAINED_JOBS:
                    dropped = self._terminal.popleft()
                    del self._jobs[dropped]
                    self._futures.pop(dropped, None)

    # -- journal -------------------------------------------------------

    def _journal(self, job: Job, event: str, **data: Any) -> None:
        self.journal.append(
            {"run": self.run_id, "job": job.id, "event": event, **data}
        )

    def _journal_terminal(self, job: Job) -> None:
        snapshot = job.snapshot()
        self._journal(
            job, snapshot["state"],
            completed=snapshot["progress"]["completed"],
            served_from_store=snapshot["progress"]["served_from_store"],
            simulated=snapshot["progress"]["simulated"],
            error=snapshot["error"],
        )

    def history(self) -> List[Dict[str, Any]]:
        """Journal-reconstructed job summaries, previous runs included.

        One entry per journaled job, carrying its last recorded event
        and state; entries from other server runs are marked
        ``restored`` — they exist for operator visibility after a
        restart, not as live jobs.
        """
        summaries: Dict[str, Dict[str, Any]] = {}
        for record in self.journal.records():
            job_id = record.get("job")
            if not isinstance(job_id, str):
                continue
            event = record["event"]
            entry = summaries.setdefault(job_id, {
                "job": job_id,
                "run": record.get("run"),
                "restored": record.get("run") != self.run_id,
            })
            entry["last_event"] = event
            entry["ts"] = record.get("ts")
            for field in ("kind", "detail", "total", "completed",
                          "served_from_store", "simulated", "error"):
                if field in record:
                    entry[field] = record[field]
            # Records are appended in lifecycle order, so the latest one
            # holds the state: a journal that ends at "started" is a job
            # that was running when its server stopped.
            entry["state"] = _JOURNAL_STATES.get(event, event)
        return list(summaries.values())


def spec_from_payload(payload: Any, allow_plugins: bool = False) -> ExperimentSpec:
    """Build an :class:`ExperimentSpec` from an untrusted API payload.

    Exactly the PR 2 ``--spec`` round-trip format, with one service
    twist: ``plugins`` load arbitrary modules into the server process,
    so they are rejected unless the operator opted in — and the check
    happens *before* construction, because ``ExperimentSpec`` imports
    its plugins as a construction side effect.
    """
    if not isinstance(payload, dict):
        raise ValueError("spec payload must be a JSON object of axis values")
    if payload.get("plugins") and not allow_plugins:
        raise ValueError(
            "spec 'plugins' are disabled on this server "
            "(start with --allow-plugins to accept them)"
        )
    return ExperimentSpec.from_dict(payload)


__all__ = [
    "Job",
    "JobCancelled",
    "JobManager",
    "JobState",
    "spec_from_payload",
]
