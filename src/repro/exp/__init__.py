"""Experiment engine: declarative sweeps, pluggable execution, result store.

The engine turns the paper's figure grids into composable pieces:

* :class:`~repro.exp.spec.ExperimentSpec` — a declarative, hashable grid
  over workload / design / capacity / seed / page size and cache /
  system / timing variants, plus the plugin modules that register any
  custom designs or workload profiles it references;
* :class:`~repro.exp.runner.SweepRunner` — orchestrates a sweep: store
  lookups, key dedup, progress, persistence;
* :mod:`repro.exp.backends` — how uncached points execute:
  :class:`~repro.exp.backends.SerialBackend` (in-process),
  :class:`~repro.exp.backends.ProcessBackend` (process pool) or
  :class:`~repro.exp.backends.ShardBackend` (a deterministic ``i/n``
  partition of the grid);
* :class:`~repro.exp.store.ResultStore` — a JSONL store keyed by a
  stable config hash, so results persist across processes and sessions;
  per-shard stores recombine through :meth:`~repro.exp.store.ResultStore.merge`.

>>> from repro.exp import ExperimentSpec, SweepRunner
>>> spec = ExperimentSpec(workloads="web_search", designs=("page",),
...                       capacities_mb=64, num_requests=4000)
>>> sweep = SweepRunner(store=None).run(spec)
>>> sweep.get(design="page").design
'page'
"""

from repro.exp.backends import (
    DistributedBackend,
    HttpTransport,
    ProcessBackend,
    SerialBackend,
    ShardBackend,
    SweepBackend,
    TransportError,
    make_backend,
    parse_shard,
)
from repro.exp.locking import file_lock
from repro.exp.plugins import load_plugin, load_plugins, merge_plugins
from repro.exp.runner import (
    SweepProgress,
    SweepResult,
    SweepRunner,
    run_point,
)
from repro.exp.spec import (
    ENGINE_VERSION,
    ExperimentPoint,
    ExperimentSpec,
    default_requests,
    freeze_kwargs,
    split_timing_kwargs,
)
from repro.exp.store import (
    CompactionStats,
    MergeStats,
    ResultStore,
    StoreMergeConflict,
    StoreStats,
    default_store_dir,
)

__all__ = [
    "CompactionStats",
    "DistributedBackend",
    "ENGINE_VERSION",
    "ExperimentPoint",
    "ExperimentSpec",
    "HttpTransport",
    "MergeStats",
    "ProcessBackend",
    "ResultStore",
    "SerialBackend",
    "ShardBackend",
    "StoreMergeConflict",
    "StoreStats",
    "SweepBackend",
    "SweepProgress",
    "SweepResult",
    "SweepRunner",
    "TransportError",
    "default_requests",
    "default_store_dir",
    "file_lock",
    "freeze_kwargs",
    "load_plugin",
    "load_plugins",
    "make_backend",
    "merge_plugins",
    "parse_shard",
    "run_point",
    "split_timing_kwargs",
]
