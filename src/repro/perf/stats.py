"""The geometric mean the figures and benches aggregate with.

Simulated components count events in plain ``int`` attributes (see
:meth:`repro.caches.base.DramCache._record`); this module only holds the
aggregate the paper uses across workloads.
"""

from __future__ import annotations

import math
from typing import Sequence


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean, used by the paper for the multiprogrammed workload
    and the Fig. 6 geomean panel.

    Raises ``ValueError`` for empty input or non-positive entries.
    """
    if not values:
        raise ValueError("geometric mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
