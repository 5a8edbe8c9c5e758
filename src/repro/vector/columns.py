"""NumPy columns of one :class:`repro.workloads.trace.Trace` segment.

A :class:`Trace` already stores the five request fields as parallel
``array`` columns.  A segment is a private copy of each column's slice
(``array`` slicing copies without exporting a buffer) wrapped by
``np.frombuffer``.  Views straight into the trace would pin its buffers
for the whole segment replay, and the trace behind a replay is often the
shared cache's live entry: any other replay of the same stream that
needs it longer would then fail to grow it (``BufferError``).  The copy
is about 1.7 MB per 64Ki-request segment, small next to the kernel.
"""

from __future__ import annotations

import numpy as np

# array typecode -> NumPy dtype of the five Trace columns.
_DTYPES = {"q": np.int64, "b": np.int8, "h": np.int16}


class TraceColumns:
    """One trace segment as five parallel NumPy arrays."""

    __slots__ = ("addresses", "pcs", "writes", "core_ids", "instruction_counts")

    def __init__(self, addresses, pcs, writes, core_ids, instruction_counts) -> None:
        self.addresses = addresses
        self.pcs = pcs
        self.writes = writes
        self.core_ids = core_ids
        self.instruction_counts = instruction_counts

    def __len__(self) -> int:
        return len(self.addresses)


def _column(column, start: int, stop: int):
    dtype = _DTYPES[column.typecode]
    if stop <= start:
        return np.empty(0, dtype=dtype)
    return np.frombuffer(column[start:stop], dtype=dtype)


def trace_segment(trace, start: int, stop: int) -> TraceColumns:
    """Columns of ``trace[start:stop)``, copied out of the trace."""
    stop = min(stop, len(trace.addresses))
    return TraceColumns(
        _column(trace.addresses, start, stop),
        _column(trace.pcs, start, stop),
        _column(trace.writes, start, stop),
        _column(trace.core_ids, start, stop),
        _column(trace.instruction_counts, start, stop),
    )
