"""The analytic performance model and the geometric mean.

Simulator performance itself (wall time of a report, replay time per
design, kernel share) is measured by the repository benchmark; see
``perfbench/README.md``.
"""

from repro.perf.stats import geometric_mean
from repro.perf.timing_model import PerformanceModel, PerformanceResult

__all__ = [
    "geometric_mean",
    "PerformanceModel",
    "PerformanceResult",
]
