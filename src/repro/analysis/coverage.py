"""Access-coverage analysis (paper Fig. 12, the CHOP discussion).

Fig. 12 asks: with a *perfect* hot-page predictor and an ideal replacement
policy, how much cache is needed so that the resident pages cover a given
fraction of all accesses?  The answer — over 1GB for 80% — is why
page-popularity filtering fails on scale-out workloads: their accesses
spread across the dataset without a compact hot set.

Both steps run on NumPy columns: :func:`access_counts_per_page` counts
accesses per page of an int64 address column by sorting it (no per-page
Python objects), and :func:`coverage_curve` ranks those counts and
accumulates: covering the top-k pages requires ``k * page_size`` bytes
of cache.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence, Tuple

import numpy as np


def access_counts_per_page(addresses, page_size: int = 4096) -> np.ndarray:
    """Access count of every touched page, in ascending page order.

    ``addresses`` is an address column (any integer sequence); pages are
    4KB by default, as in [13].
    """
    pages = np.asarray(addresses, dtype=np.int64) // page_size
    if not len(pages):
        return np.zeros(0, dtype=np.int64)
    # Sort in place and measure runs: no copy beyond ``pages`` itself.
    pages.sort()
    starts = np.flatnonzero(pages[1:] != pages[:-1]) + 1
    return np.diff(starts, prepend=0, append=len(pages))


def coverage_curve(
    counts, page_size: int = 4096, points: Sequence[float] = (0.2, 0.4, 0.6, 0.8)
) -> List[Tuple[float, int]]:
    """(fraction covered, ideal cache bytes) pairs for Fig. 12's x-axis.

    ``counts`` holds one access count per page: a sequence, or a mapping
    from page to count.  Pages are ranked by popularity (the perfect
    predictor); each point reports the smallest cache that covers that
    fraction of accesses.
    """
    for p in points:
        if not 0.0 < p <= 1.0:
            raise ValueError(f"coverage fraction {p} outside (0, 1]")
    if isinstance(counts, Mapping):
        counts = list(counts.values())
    running = np.cumsum(np.sort(np.asarray(counts, dtype=np.int64))[::-1])
    total = int(running[-1]) if len(running) else 0
    if total == 0:
        raise ValueError("empty trace")
    # The first rank whose running total reaches the target.
    return [
        (target, (int(np.searchsorted(running, target * total)) + 1) * page_size)
        for target in sorted(points)
    ]


def ideal_cache_size_for_coverage(
    addresses,
    coverage: float = 0.8,
    page_size: int = 4096,
) -> int:
    """Bytes of ideal cache needed to cover ``coverage`` of an address column."""
    counts = access_counts_per_page(addresses, page_size)
    ((_, size),) = coverage_curve(counts, page_size, points=(coverage,))
    return size
