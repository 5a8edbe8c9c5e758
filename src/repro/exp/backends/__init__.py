"""Pluggable sweep execution backends.

How a sweep's uncached points run is a :class:`SweepBackend`:
``SerialBackend`` (in-process), ``ProcessBackend`` (process-pool
fan-out, the historical default for ``jobs > 1``) and ``ShardBackend``
(a deterministic ``i/n`` grid partition delegating to an inner
backend).  ``SweepRunner`` and ``run_figure`` accept any of them; the
CLI picks one from ``--jobs`` (and ``--shard I/N``) through
:func:`make_backend`.  See :mod:`repro.exp.backends.base` for the
protocol and the plugin-bootstrap contract.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.exp.backends.base import SweepBackend
from repro.exp.backends.distributed import (
    COORDINATOR_PREFIX,
    DistributedBackend,
    HttpTransport,
    TransportError,
)
from repro.exp.backends.process import ProcessBackend
from repro.exp.backends.serial import SerialBackend
from repro.exp.backends.shard import ShardBackend, parse_shard

def make_backend(
    jobs: int = 1,
    shard: Optional[Tuple[int, int]] = None,
) -> SweepBackend:
    """Build a backend from CLI-shaped arguments.

    ``jobs == 1`` runs in-process (serial); anything else (0 = one per
    CPU) fans out over a process pool.  A ``shard`` pair wraps the
    chosen backend in a :class:`ShardBackend`.
    """
    if jobs < 0:
        raise ValueError("jobs must be non-negative")
    if jobs == 1:
        backend: SweepBackend = SerialBackend()
    else:
        backend = ProcessBackend(jobs)
    if shard is not None:
        index, count = shard
        backend = ShardBackend(index, count, inner=backend)
    return backend


__all__ = [
    "COORDINATOR_PREFIX",
    "DistributedBackend",
    "HttpTransport",
    "ProcessBackend",
    "SerialBackend",
    "ShardBackend",
    "SweepBackend",
    "TransportError",
    "make_backend",
    "parse_shard",
]
