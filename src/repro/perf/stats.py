"""Lightweight statistics primitives used by every simulated component.

The paper reports miss ratios, normalised bandwidths, energy-per-instruction
and performance improvements with 95% confidence intervals (Section 5.4).
These helpers provide counters, ratios, histograms, and the aggregation
utilities the benches use to print paper-style rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple


class Counter:
    """A named monotonic event counter.

    Hot-path components bind counters once and bump ``_value`` directly
    (see :meth:`repro.caches.base.DramCache._record`); :meth:`increment`
    is the validating public API.  ``__slots__`` because per-access code
    reads these objects constantly.
    """

    __slots__ = ("name", "_value")

    def __init__(self, name: str, initial: int = 0) -> None:
        if initial < 0:
            raise ValueError(f"initial count must be non-negative, got {initial}")
        self.name = name
        self._value = initial

    @property
    def value(self) -> int:
        """Current count."""
        return self._value

    def increment(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"cannot decrement counter {self.name!r} by {amount}")
        self._value += amount

    def reset(self) -> None:
        """Zero the counter (used when discarding warm-up measurements)."""
        self._value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self._value})"


class RatioStat:
    """A hits/total style ratio with guard against empty denominators."""

    __slots__ = ("name", "numerator", "denominator")

    def __init__(self, name: str) -> None:
        self.name = name
        self.numerator = 0
        self.denominator = 0

    def record(self, success: bool) -> None:
        """Record one trial; ``success`` increments the numerator."""
        self.denominator += 1
        if success:
            self.numerator += 1

    def add(self, numerator: int, denominator: int) -> None:
        """Bulk-accumulate already-counted trials."""
        if denominator < 0 or numerator < 0:
            raise ValueError("ratio components must be non-negative")
        self.numerator += numerator
        self.denominator += denominator

    @property
    def ratio(self) -> float:
        """Numerator over denominator; 0.0 when nothing was recorded."""
        if self.denominator == 0:
            return 0.0
        return self.numerator / self.denominator

    def reset(self) -> None:
        """Zero both components."""
        self.numerator = 0
        self.denominator = 0

    def __repr__(self) -> str:
        return f"RatioStat({self.name!r}, {self.numerator}/{self.denominator})"


class Histogram:
    """Integer-bucketed histogram (e.g. page density in blocks, Fig. 4)."""

    __slots__ = ("name", "_buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self._buckets: Dict[int, int] = {}

    def record(self, value: int, count: int = 1) -> None:
        """Add ``count`` observations of ``value``."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self._buckets[value] = self._buckets.get(value, 0) + count

    @property
    def total(self) -> int:
        """Total number of observations."""
        return sum(self._buckets.values())

    def count(self, value: int) -> int:
        """Observations exactly equal to ``value``."""
        return self._buckets.get(value, 0)

    def items(self) -> Iterator[Tuple[int, int]]:
        """(value, count) pairs in ascending value order."""
        return iter(sorted(self._buckets.items()))

    def fraction_in_range(self, low: int, high: int) -> float:
        """Fraction of observations with ``low <= value <= high``."""
        total = self.total
        if total == 0:
            return 0.0
        in_range = sum(c for v, c in self._buckets.items() if low <= v <= high)
        return in_range / total

    def mean(self) -> float:
        """Mean observed value (0.0 for an empty histogram)."""
        total = self.total
        if total == 0:
            return 0.0
        return sum(v * c for v, c in self._buckets.items()) / total

    def percentile(self, p: float) -> int:
        """Smallest value v such that at least ``p`` of mass is <= v."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"percentile must be in [0, 1], got {p}")
        total = self.total
        if total == 0:
            raise ValueError("percentile of empty histogram")
        threshold = p * total
        running = 0
        result = 0
        for value, count in self.items():
            running += count
            result = value
            if running >= threshold:
                break
        return result

    def reset(self) -> None:
        """Drop all observations."""
        self._buckets.clear()

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, n={self.total})"


class StatGroup:
    """A named collection of counters/ratios/histograms for one component.

    Components create their stats through the group so that simulator-level
    reporting (and warm-up resets) can enumerate them uniformly.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._counters: Dict[str, Counter] = {}
        self._ratios: Dict[str, RatioStat] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """Get-or-create a counter."""
        if name not in self._counters:
            self._counters[name] = Counter(f"{self.name}.{name}")
        return self._counters[name]

    def ratio(self, name: str) -> RatioStat:
        """Get-or-create a ratio statistic."""
        if name not in self._ratios:
            self._ratios[name] = RatioStat(f"{self.name}.{name}")
        return self._ratios[name]

    def histogram(self, name: str) -> Histogram:
        """Get-or-create a histogram."""
        if name not in self._histograms:
            self._histograms[name] = Histogram(f"{self.name}.{name}")
        return self._histograms[name]

    def reset(self) -> None:
        """Reset every statistic in the group (end of warm-up)."""
        for counter in self._counters.values():
            counter.reset()
        for ratio in self._ratios.values():
            ratio.reset()
        for histogram in self._histograms.values():
            histogram.reset()

    def histograms(self) -> Dict[str, Histogram]:
        """The group's histograms by (unqualified) name.

        Unlike :meth:`as_dict`, this exposes the full distributions —
        buckets, percentiles — rather than scalar summaries.
        """
        return dict(self._histograms)

    def as_dict(self) -> Dict[str, float]:
        """Flatten to a {name: value} mapping for reporting.

        Counters contribute their value and ratios their ratio under
        their plain name.  Histograms cannot be summarised in one number,
        so each contributes two scalars — ``<name>_mean`` and
        ``<name>_total`` (observation count); use :meth:`histograms` for
        the full distributions.  (Histograms were previously omitted
        entirely, which silently hid e.g. eviction-density data from
        flat reports.)
        """
        out: Dict[str, float] = {}
        for name, counter in self._counters.items():
            out[name] = float(counter.value)
        for name, ratio in self._ratios.items():
            out[name] = ratio.ratio
        for name, histogram in self._histograms.items():
            out[f"{name}_mean"] = histogram.mean()
            out[f"{name}_total"] = float(histogram.total)
        return out

    def __repr__(self) -> str:
        return (
            f"StatGroup({self.name!r}, counters={len(self._counters)}, "
            f"ratios={len(self._ratios)}, histograms={len(self._histograms)})"
        )


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


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises on empty input."""
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)

