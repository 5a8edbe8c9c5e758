"""The distributed-sweep coordinator: leases, deadlines, merge-folded shards.

One :class:`Coordinator` instance sits behind the
``/api/v1/coordinator/*`` routes (:mod:`repro.serve.service`) and drives
the worker-fleet protocol end to end:

* a submitter (:class:`~repro.exp.backends.distributed.DistributedBackend`)
  POSTs a *run* — a list of serialized
  :class:`~repro.exp.spec.ExperimentPoint` — which is partitioned
  round-robin into *shards*;
* workers (:mod:`repro.serve.worker`) lease one shard at a time; a lease
  carries a deadline (``lease_seconds`` on an injected monotonic clock),
  and a shard whose lease expires goes back to pending for reassignment,
  so a worker that dies mid-shard only costs one lease window;
* workers stream per-point results against their lease; deliveries are
  idempotent — re-sending a result the coordinator already holds is a
  counted no-op if the payload is byte-identical and a hard conflict if
  it is not (the simulation is deterministic, so differing bytes mean a
  mis-versioned engine, never a scheduling artifact);
* a completed shard *folds*: its records are written in the exact
  :meth:`~repro.exp.store.ResultStore.put` line format and merged into
  the coordinator's store via :meth:`~repro.exp.store.ResultStore.merge`,
  inheriting its byte-level conflict detection.  Folded results become
  visible to the submitter through the run's cursor-paged results log.

Every state transition (run accepted, shard folded, run done/failed) is
appended to a :class:`~repro.serve.journal.Journal`;
:meth:`Coordinator.restore` rebuilds runs from the journal on restart —
folded shards reload their results from the store, unfolded shards
simply go back to pending, and in-flight leases are dropped (workers
discover this via a stale-lease reply and re-lease).
"""

from __future__ import annotations

import json
import secrets
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.exp.plugins import load_plugins
from repro.exp.spec import ExperimentPoint
from repro.exp.store import ResultStore, StoreMergeConflict
from repro.obs.log import get_logger
from repro.obs.metrics import registry
from repro.obs.spans import tracer
from repro.serve.journal import Journal

log = get_logger("serve.coordinator")


def _count(event: str, amount: int = 1) -> None:
    """Bump the coordinator lifecycle counter for ``event``."""
    registry().counter(
        "repro_coordinator_events_total",
        "coordinator lease/delivery lifecycle events",
        event=event,
    ).inc(amount)

DEFAULT_LEASE_SECONDS = 60.0
DEFAULT_SHARDS = 16
"""Default shard count cap: a run is split into at most this many leases
(never more than it has points), bounding the work lost to one dead
worker at roughly ``points / DEFAULT_SHARDS``."""


class ServiceError(Exception):
    """An API error with its HTTP status (the body is ``{"error": ...}``).

    Raised by the coordinator and by the route functions in
    :mod:`repro.serve.service`, whose ``dispatch`` turns it into the
    error response.  It lives here, the lower of the two modules, so
    both can import it.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class _Shard:
    """One leaseable unit of a run."""

    index: int
    points: Tuple[ExperimentPoint, ...]
    state: str = "pending"  # pending | leased | done
    lease_id: Optional[str] = None
    worker: Optional[str] = None
    deadline: float = 0.0
    #: key -> result payload; survives lease reassignment so re-deliveries
    #: of a half-finished shard are recognised as duplicates.
    delivered: Dict[str, dict] = field(default_factory=dict)
    leases_granted: int = 0


@dataclass
class _Run:
    """One submitted grid and its shard/lease state."""

    id: str
    points: Tuple[ExperimentPoint, ...]
    shards: List[_Shard]
    lease_seconds: float
    plugins: Tuple[str, ...] = ()
    state: str = "running"  # running | done | failed
    error: Optional[str] = None
    restored: bool = False
    #: (key, result payload) in fold order — the submitter's poll log.
    results: List[Tuple[str, dict]] = field(default_factory=list)
    workers: set = field(default_factory=set)
    duplicates: int = 0
    reassigned: int = 0


def partition(
    points: Tuple[ExperimentPoint, ...], shards: int
) -> List[Tuple[ExperimentPoint, ...]]:
    """Deterministic round-robin split (same rule as ``ShardBackend``)."""
    count = max(1, min(shards, len(points)))
    return [points[index::count] for index in range(count)]


class Coordinator:
    """Shared run/lease state machine behind the coordinator routes.

    Thread-safe: every public method takes the instance lock (the HTTP
    server dispatches requests from many threads).  Time is read from
    the injected ``clock`` only, so tests drive lease expiry
    deterministically.
    """

    def __init__(
        self,
        store_dir: str,
        journal_path: Optional[str] = None,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        default_shards: int = DEFAULT_SHARDS,
        allow_plugins: bool = False,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.store_dir = store_dir
        self.journal = Journal(journal_path, "coordinator")
        self.lease_seconds = float(lease_seconds)
        self.default_shards = int(default_shards)
        self.allow_plugins = allow_plugins
        self.clock = clock
        self._lock = threading.RLock()
        self._runs: Dict[str, _Run] = {}
        self._leases: Dict[str, _Shard] = {}
        #: lease id -> shard, for leases that already folded (a retried
        #: ``complete`` must be acknowledged as duplicate, not stale).
        self._closed_leases: Dict[str, _Shard] = {}
        self.restore()

    # -- submission ----------------------------------------------------

    def submit(self, payload: Any) -> Dict[str, Any]:
        """Accept a run: validate, partition into shards, journal it."""
        if not isinstance(payload, dict):
            raise ServiceError(400, "run payload must be a JSON object")
        raw_points = payload.get("points")
        if not isinstance(raw_points, list) or not raw_points:
            raise ServiceError(400, "run payload needs a non-empty 'points' list")
        if payload.get("plugins") and not self.allow_plugins:
            raise ServiceError(
                400,
                "plugins are disabled on this coordinator "
                "(restart with --allow-plugins to accept them)",
            )
        try:
            plugins = tuple(payload.get("plugins") or ())
            load_plugins(plugins)
            # Dedupe by key, preserving order: key-duplicate spellings of
            # one experiment must not be simulated (or folded) twice.
            # The key resolves the point's config, so it also rejects
            # values the simulator cannot build (e.g. a zero scale).
            deduped: Dict[str, ExperimentPoint] = {}
            for raw in raw_points:
                point = ExperimentPoint.from_dict(raw)
                deduped.setdefault(point.key(), point)
            shards = int(payload.get("shards") or self.default_shards)
            lease_seconds = float(
                payload.get("lease_seconds") or self.lease_seconds
            )
        except (ArithmeticError, TypeError, ValueError) as error:
            raise ServiceError(400, f"invalid run: {error}") from None
        # `not > 0` also rejects NaN, which would never expire.
        if not lease_seconds > 0:
            raise ServiceError(400, "lease_seconds must be positive")
        unique = tuple(deduped.values())
        with self._lock:
            run = _Run(
                id=f"run-{secrets.token_hex(4)}",
                points=unique,
                shards=[
                    _Shard(index=index, points=part)
                    for index, part in enumerate(partition(unique, shards))
                ],
                lease_seconds=lease_seconds,
                plugins=plugins,
            )
            self._runs[run.id] = run
            self.journal.append({
                "event": "run",
                "run": run.id,
                "points": [point.to_dict() for point in unique],
                "shards": len(run.shards),
                "lease_seconds": lease_seconds,
                "plugins": list(plugins),
            })
            _count("submitted")
            tracer().event(
                "coordinator.submit", run=run.id, points=len(unique),
                shards=len(run.shards),
            )
            log.info("run accepted", run=run.id, points=len(unique),
                     shards=len(run.shards))
            return self._snapshot(run)

    # -- worker protocol -----------------------------------------------

    def lease(self, worker: Optional[str] = None) -> Dict[str, Any]:
        """Grant the next pending shard to ``worker`` (or report idle)."""
        if worker is not None and not isinstance(worker, str):
            # Names are set members and sorted in snapshots.
            raise ServiceError(400, "'worker' must be a string")
        worker = worker or "anonymous"
        with self._lock:
            self._expire_stale()
            for run in self._runs.values():
                if run.state != "running":
                    continue
                for shard in run.shards:
                    if shard.state != "pending":
                        continue
                    lease_id = secrets.token_hex(8)
                    shard.state = "leased"
                    shard.lease_id = lease_id
                    shard.worker = worker
                    shard.deadline = self.clock() + run.lease_seconds
                    shard.leases_granted += 1
                    self._leases[lease_id] = shard
                    run.workers.add(worker)
                    _count("granted")
                    tracer().event(
                        "coordinator.lease", run=run.id, shard=shard.index,
                        lease=lease_id, worker=worker,
                        points=len(shard.points),
                    )
                    log.debug("lease granted", run=run.id,
                              shard=shard.index, lease=lease_id,
                              worker=worker)
                    return {
                        "state": "granted",
                        "lease": {
                            "id": lease_id,
                            "run": run.id,
                            "shard": shard.index,
                            "lease_seconds": run.lease_seconds,
                            "points": [p.to_dict() for p in shard.points],
                            "plugins": list(run.plugins),
                        },
                    }
            return {"state": "idle"}

    def deliver(self, payload: Any) -> Dict[str, Any]:
        """Record one point result against a lease (idempotent)."""
        lease_id, shard = self._validated_lease(payload)
        if shard is None:
            return {"state": "stale"}
        key = payload.get("key")
        result = payload.get("result")
        if not isinstance(key, str) or not isinstance(result, dict):
            raise ServiceError(
                400, "delivery needs a string 'key' and an object 'result'"
            )
        with self._lock:
            run = self._run_of(shard)
            expected = {point.key() for point in shard.points}
            if key not in expected:
                raise ServiceError(
                    400, f"key {key!r} is not part of shard {shard.index}"
                )
            worker = payload.get("worker") or shard.worker
            previous = shard.delivered.get(key)
            if previous is not None:
                if previous == result:
                    run.duplicates += 1
                    _count("duplicate")
                    tracer().event(
                        "coordinator.deliver", run=run.id,
                        shard=shard.index, worker=worker, key=key,
                        duplicate=True,
                    )
                    return {"state": "duplicate"}
                # Deterministic engine: byte-differing re-delivery means
                # version skew between workers, never a retry artifact.
                _count("conflict")
                tracer().event(
                    "coordinator.conflict", run=run.id, shard=shard.index,
                    worker=worker, key=key,
                )
                log.error("conflicting delivery", run=run.id,
                          shard=shard.index, worker=worker, key=key)
                self._fail_run(
                    run,
                    f"conflicting result for key {key} "
                    f"(worker {worker})",
                )
                raise ServiceError(409, run.error)
            shard.delivered[key] = result
            _count("delivered")
            tracer().event(
                "coordinator.deliver", run=run.id, shard=shard.index,
                worker=worker, key=key, duplicate=False,
            )
            return {"state": "accepted", "remaining": len(expected) - len(shard.delivered)}

    def complete(self, payload: Any) -> Dict[str, Any]:
        """Fold a fully delivered shard into the coordinator store."""
        lease_id, shard = self._validated_lease(payload)
        with self._lock:
            if shard is None:
                # A duplicated/retried complete call: if the lease folded
                # the shard already, acknowledge instead of failing.
                done = self._closed_leases.get(lease_id) if lease_id else None
                if done is not None and done.state == "done":
                    return {"state": "duplicate"}
                return {"state": "stale"}
            run = self._run_of(shard)
            missing = [
                point.key() for point in shard.points
                if point.key() not in shard.delivered
            ]
            if missing:
                raise ServiceError(
                    409,
                    f"shard {shard.index} incomplete: {len(missing)} point(s) "
                    "undelivered",
                )
            try:
                self._fold(run, shard)
            except StoreMergeConflict as error:
                self._fail_run(
                    run, f"store merge conflict folding shard {shard.index}: {error}"
                )
                raise ServiceError(409, run.error) from None
            shard.state = "done"
            self._close_lease(shard)
            self.journal.append(
                {"event": "shard", "run": run.id, "shard": shard.index}
            )
            _count("folded")
            tracer().event(
                "coordinator.complete", run=run.id, shard=shard.index,
                worker=shard.worker, points=len(shard.points),
            )
            log.debug("shard folded", run=run.id, shard=shard.index,
                      worker=shard.worker, points=len(shard.points))
            if all(s.state == "done" for s in run.shards):
                run.state = "done"
                self.journal.append({"event": "done", "run": run.id})
                _count("done")
                tracer().event(
                    "coordinator.done", run=run.id, points=len(run.points),
                    reassigned=run.reassigned, duplicates=run.duplicates,
                )
                log.info("run done", run=run.id, points=len(run.points),
                         reassigned=run.reassigned,
                         duplicates=run.duplicates)
            return {"state": "folded", "run_state": run.state}

    # -- submitter protocol --------------------------------------------

    def list_runs(self) -> List[Dict[str, Any]]:
        with self._lock:
            self._expire_stale()
            return [self._snapshot(run) for run in self._runs.values()]

    def run_snapshot(self, run_id: str) -> Dict[str, Any]:
        with self._lock:
            self._expire_stale()
            return self._snapshot(self._get_run(run_id))

    def run_results(self, run_id: str, since: int = 0) -> Dict[str, Any]:
        """One cursor page of a run's folded results."""
        with self._lock:
            self._expire_stale()
            run = self._get_run(run_id)
            since = max(0, int(since))
            page = run.results[since:]
            return {
                "run": run.id,
                "state": run.state,
                "error": run.error,
                "results": [
                    {"key": key, "result": result} for key, result in page
                ],
                "next": since + len(page),
                "total": len(run.points),
            }

    # -- restart -------------------------------------------------------

    def restore(self) -> None:
        """Rebuild run state from the journal + store after a restart.

        Folded shards whose records are all still in the store come back
        ``done`` with their results re-exposed; anything else (unfolded
        shards, shards whose records were compacted away, in-flight
        leases) goes back to ``pending`` and is simply re-run — the
        engine is deterministic, so re-running can only reproduce the
        same bytes.
        """
        records = list(self.journal.records())
        if not records:
            return
        with self._lock:
            store = ResultStore(self.store_dir)
            for record in records:
                self._replay(record, store)
            for run in self._runs.values():
                if run.state == "done" and any(
                    shard.state != "done" for shard in run.shards
                ):
                    # The journal says done but some shard's records were
                    # compacted out of the store: re-run them (determinism
                    # makes the re-run reproduce the same bytes).
                    run.state = "running"
                if run.state == "running" and all(
                    shard.state == "done" for shard in run.shards
                ):
                    run.state = "done"

    def _replay(self, record: dict, store: ResultStore) -> None:
        event = record.get("event")
        run_id = record.get("run")
        if event == "run":
            try:
                load_plugins(tuple(record.get("plugins") or ()))
                points = tuple(
                    ExperimentPoint.from_dict(raw) for raw in record["points"]
                )
                run = _Run(
                    id=run_id,
                    points=points,
                    shards=[
                        _Shard(index=index, points=part)
                        for index, part in enumerate(
                            partition(points, int(record["shards"]))
                        )
                    ],
                    lease_seconds=float(record["lease_seconds"]),
                    plugins=tuple(record.get("plugins") or ()),
                    restored=True,
                )
            except (KeyError, TypeError, ValueError) as error:
                run = _Run(
                    id=run_id or f"run-{secrets.token_hex(4)}",
                    points=(), shards=[], lease_seconds=self.lease_seconds,
                    state="failed", error=f"journal restore failed: {error}",
                    restored=True,
                )
            self._runs[run.id] = run
            return
        run = self._runs.get(run_id)
        if run is None:
            return
        if event == "shard":
            index = record.get("shard")
            if not isinstance(index, int) or index >= len(run.shards):
                return
            shard = run.shards[index]
            results = []
            for point in shard.points:
                result = store.get(point)
                if result is None:
                    return  # record compacted away: shard re-runs
                results.append((point.key(), result.to_dict()))
            shard.state = "done"
            shard.delivered = dict(results)
            run.results.extend(results)
        elif event == "done":
            run.state = "done"
        elif event == "failed":
            run.state = "failed"
            run.error = record.get("error")

    # -- internals -----------------------------------------------------

    def _validated_lease(
        self, payload: Any
    ) -> Tuple[Optional[str], Optional[_Shard]]:
        if not isinstance(payload, dict):
            raise ServiceError(400, "payload must be a JSON object")
        lease_id = payload.get("lease")
        if not isinstance(lease_id, str):
            raise ServiceError(400, "payload needs a string 'lease'")
        with self._lock:
            self._expire_stale()
            shard = self._leases.get(lease_id)
            if shard is None or shard.lease_id != lease_id:
                return lease_id, None
            return lease_id, shard

    def _run_of(self, shard: _Shard) -> _Run:
        for run in self._runs.values():
            if shard in run.shards:
                return run
        raise ServiceError(500, "lease points at an unknown run")

    def _expire_stale(self) -> None:
        now = self.clock()
        for run in self._runs.values():
            if run.state != "running":
                continue
            for shard in run.shards:
                if shard.state == "leased" and now > shard.deadline:
                    expired_lease, expired_worker = shard.lease_id, shard.worker
                    self._leases.pop(shard.lease_id, None)
                    shard.state = "pending"
                    shard.lease_id = None
                    shard.worker = None
                    run.reassigned += 1
                    _count("expired")
                    tracer().event(
                        "coordinator.expire", run=run.id, shard=shard.index,
                        lease=expired_lease, worker=expired_worker,
                    )
                    log.warning("lease expired", run=run.id,
                                shard=shard.index, lease=expired_lease,
                                worker=expired_worker)

    def _close_lease(self, shard: _Shard) -> None:
        if shard.lease_id is not None:
            self._leases.pop(shard.lease_id, None)
            self._closed_leases[shard.lease_id] = shard

    def _fold(self, run: _Run, shard: _Shard) -> None:
        """Merge one delivered shard into the coordinator store.

        The shard's records are written in the byte-exact
        :meth:`ResultStore.put` line format to a scratch store, then
        folded with :meth:`ResultStore.merge` so the coordinator store
        inherits merge's conflict detection and duplicate skipping —
        the same gate the CI shard-smoke job relies on.
        """
        scratch = tempfile.mkdtemp(prefix="repro-shard-")
        try:
            lines = []
            for point in shard.points:
                record = {
                    "key": point.key(),
                    "point": point.describe(),
                    "result": shard.delivered[point.key()],
                }
                lines.append(json.dumps(record, sort_keys=True))
            shard_store = ResultStore(scratch)
            with open(shard_store.path, "w") as handle:
                handle.write("".join(line + "\n" for line in lines))
            ResultStore(self.store_dir).merge([shard_store])
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        run.results.extend(
            (point.key(), shard.delivered[point.key()]) for point in shard.points
        )

    def _fail_run(self, run: _Run, error: str) -> None:
        run.state = "failed"
        run.error = error
        self.journal.append({"event": "failed", "run": run.id, "error": error})

    def _snapshot(self, run: _Run) -> Dict[str, Any]:
        states = {"pending": 0, "leased": 0, "done": 0}
        for shard in run.shards:
            states[shard.state] += 1
        return {
            "id": run.id,
            "state": run.state,
            "error": run.error,
            "restored": run.restored,
            "points": len(run.points),
            "folded": len(run.results),
            "shards": states,
            "lease_seconds": run.lease_seconds,
            "workers": sorted(run.workers),
            "duplicates": run.duplicates,
            "reassigned": run.reassigned,
        }

    def _get_run(self, run_id: str) -> _Run:
        run = self._runs.get(run_id)
        if run is None:
            raise ServiceError(404, f"unknown run {run_id!r}")
        return run


__all__ = [
    "Coordinator",
    "DEFAULT_LEASE_SECONDS",
    "DEFAULT_SHARDS",
    "ServiceError",
    "partition",
]
