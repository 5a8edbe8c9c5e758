"""Statistics plumbing and the analytic performance model.

Simulator performance itself (wall time of a report, replay time per
design, kernel share) is measured by the repository benchmark; see
``perfbench/README.md``.
"""

from repro.perf.stats import Counter, Histogram, RatioStat, StatGroup, geometric_mean
from repro.perf.timing_model import PerformanceModel, PerformanceResult

__all__ = [
    "Counter",
    "Histogram",
    "RatioStat",
    "StatGroup",
    "geometric_mean",
    "PerformanceModel",
    "PerformanceResult",
]
