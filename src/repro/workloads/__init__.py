"""Synthetic scale-out workload generators.

The paper drives its caches with memory traces of CloudSuite 1.0 scale-out
workloads (Data Serving, MapReduce, SAT Solver, Web Frontend, Web Search)
plus a multiprogrammed SPEC INT2006 mix, collected with Flexus full-system
simulation.  We cannot run CloudSuite under a SPARC full-system simulator
here, so :mod:`repro.workloads.synthetic` generates the equivalent *L2-miss
streams* directly: per-workload mixes of access functions whose footprints
are PC-correlated (the property the predictor exploits), calibrated to the
page-density, singleton-fraction and reuse characteristics the paper
reports (Section 6.1, Fig. 4).
"""

from repro.workloads.cloudsuite import WORKLOAD_NAMES, make_workload
from repro.workloads.profiles import (
    AccessFunctionSpec,
    WorkloadProfile,
    is_builtin_profile,
    profile_for,
    profile_names,
    register_profile,
    unregister_profile,
)
from repro.workloads.synthetic import SyntheticWorkload
from repro.workloads.trace import (
    Trace,
    TraceCache,
    shared_trace_cache,
    trace_statistics,
)

__all__ = [
    "WORKLOAD_NAMES",
    "make_workload",
    "AccessFunctionSpec",
    "WorkloadProfile",
    "is_builtin_profile",
    "profile_for",
    "profile_names",
    "register_profile",
    "unregister_profile",
    "SyntheticWorkload",
    "Trace",
    "TraceCache",
    "shared_trace_cache",
    "trace_statistics",
]
