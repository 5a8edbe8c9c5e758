"""Simulation-as-a-service: the HTTP serve layer over the sweep engine.

The subsystem that turns this reproduction into a shared service: a
versioned HTTP API (``/api/v1``) through which clients submit
:class:`~repro.exp.spec.ExperimentSpec` JSON (the ``--spec`` round-trip
format), poll and stream job progress, cancel jobs, and fetch results
and rendered figures.  The :class:`~repro.exp.store.ResultStore` acts
as the cache tier in front of the simulator — warm points answer
instantly, misses fan out through the execution backend ``--jobs``
picks — and the store's advisory file locking makes HTTP jobs and
command-line sweeps safe concurrent writers of one store.

Layers (each importable on its own):

* :mod:`repro.serve.jobs` — the async job manager: bounded worker
  pool, ``pending/running/done/failed/cancelled`` states, cooperative
  between-points cancellation;
* :mod:`repro.serve.journal` — the JSONL journal the job manager and
  the coordinator both keep for restart visibility;
* :mod:`repro.serve.service` — the ``/api/v1`` route table: one
  function per route, plus the ``(method, path)`` router;
* :mod:`repro.serve.coordinator` / :mod:`repro.serve.worker` — the
  distributed-sweep protocol: leased shards with deadlines, streamed
  result delivery, merge-folded completion (``python -m repro worker``
  is the fleet side; :mod:`repro.serve.faults` is its seeded
  fault-injection harness);
* :mod:`repro.serve.httpd` — the standard-library HTTP server that
  ``python -m repro serve`` runs.

Start it from the command line::

    python -m repro serve --host 0.0.0.0 --port 8000 --workers 2 --jobs 4

and drive it with curl — see the README's "Serving" walkthrough.
"""

from repro.serve.coordinator import Coordinator
from repro.serve.jobs import (
    Job,
    JobCancelled,
    JobManager,
    JobState,
    spec_from_payload,
)
from repro.serve.worker import LeaseLost, WorkerKilled, WorkerLoop
from repro.serve.service import (
    API_PREFIX,
    API_ROUTES,
    API_VERSION,
    Response,
    ServiceError,
    SimulationService,
    dispatch,
    match_route,
)

__all__ = [
    "API_PREFIX",
    "API_ROUTES",
    "API_VERSION",
    "Coordinator",
    "Job",
    "JobCancelled",
    "JobManager",
    "JobState",
    "LeaseLost",
    "Response",
    "ServiceError",
    "SimulationService",
    "WorkerKilled",
    "WorkerLoop",
    "dispatch",
    "match_route",
    "spec_from_payload",
]
