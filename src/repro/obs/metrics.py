"""Process-wide metrics registry: counters and gauges with labels.

A deliberately small, dependency-free subset of the Prometheus client
model.  Every subsystem records into one shared
:class:`MetricsRegistry` (via :func:`registry`), and the serve layer
exposes it two ways: ``GET /api/v1/metrics`` returns
:meth:`MetricsRegistry.as_dict` as JSON, ``GET /metrics`` returns
:func:`render_prometheus` text exposition format.

Design constraints, in order:

* **Never on the replay inner loop.**  Instruments fire at point /
  request-batch boundaries only; the per-request hot path keeps
  counting in the simulated components' plain ``int`` attributes and
  this registry aggregates from them after the fact.
* **Thread-safe.**  The serve layer scrapes from HTTP handler threads
  while the job pool and coordinator mutate concurrently; one
  registry-wide lock covers both (scrapes snapshot under it).
* **Label sets are identity.**  A metric name maps to one type + help
  string; each distinct label valuation is an independent sample, as
  in Prometheus.  Label values are coerced to ``str``.

>>> reg = MetricsRegistry()
>>> reg.counter("points_total", "points run", served="store").inc()
>>> reg.counter("points_total", "points run", served="simulated").inc(2)
>>> reg.as_dict()["points_total"]["samples"]
[{'labels': {'served': 'store'}, 'value': 1}, \
{'labels': {'served': 'simulated'}, 'value': 2}]
"""

from __future__ import annotations

import threading
from typing import Dict, List, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "registry",
    "render_prometheus",
    "reset_registry",
]

LabelKey = Tuple[Tuple[str, str], ...]

def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing sample (one label valuation)."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += amount


class Gauge:
    """A sample that can go up and down (one label valuation)."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value = 0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self.value -= amount


class _Metric:
    """One named metric: type, help text, samples per label set."""

    __slots__ = ("name", "kind", "help", "samples", "labels_by_key")

    def __init__(self, name: str, kind: str, help_text: str) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.samples: Dict[LabelKey, object] = {}
        self.labels_by_key: Dict[LabelKey, Dict[str, str]] = {}


class MetricsRegistry:
    """Thread-safe registry of named, labelled metrics."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    def _sample(self, name, kind, help_text, labels, factory):
        key = _label_key(labels)
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = _Metric(name, kind, help_text)
                self._metrics[name] = metric
            elif metric.kind != kind:
                raise ValueError(
                    f"metric {name!r} is a {metric.kind}, not a {kind}"
                )
            sample = metric.samples.get(key)
            if sample is None:
                sample = factory(self._lock)
                metric.samples[key] = sample
                metric.labels_by_key[key] = {
                    str(k): str(v) for k, v in labels.items()
                }
            return sample

    def counter(self, name: str, help_text: str = "", **labels) -> Counter:
        return self._sample(name, "counter", help_text, labels, Counter)

    def gauge(self, name: str, help_text: str = "", **labels) -> Gauge:
        return self._sample(name, "gauge", help_text, labels, Gauge)

    def as_dict(self) -> Dict[str, dict]:
        """JSON-ready snapshot: ``{name: {type, help, samples: [...]}}``."""
        out: Dict[str, dict] = {}
        with self._lock:
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                samples: List[dict] = [
                    {"labels": metric.labels_by_key[key], "value": sample.value}
                    for key, sample in metric.samples.items()
                ]
                out[name] = {
                    "type": metric.kind,
                    "help": metric.help,
                    "samples": samples,
                }
        return out

    def render_prometheus(self) -> str:
        return render_prometheus(self)


def _format_labels(labels: Dict[str, str]) -> str:
    parts = [
        '%s="%s"' % (k, v.replace("\\", "\\\\").replace('"', '\\"'))
        for k, v in sorted(labels.items())
    ]
    return "{%s}" % ",".join(parts) if parts else ""


def _format_value(value) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def render_prometheus(reg: "MetricsRegistry") -> str:
    """Prometheus text exposition format (version 0.0.4)."""
    snapshot = reg.as_dict()
    lines: List[str] = []
    for name, metric in snapshot.items():
        lines.append(f"# HELP {name} {metric['help']}")
        lines.append(f"# TYPE {name} {metric['type']}")
        for sample in metric["samples"]:
            lines.append(
                f"{name}{_format_labels(sample['labels'])}"
                f" {_format_value(sample['value'])}"
            )
    return "\n".join(lines) + "\n" if lines else ""


_REGISTRY = MetricsRegistry()
_REGISTRY_LOCK = threading.Lock()


def registry() -> MetricsRegistry:
    """The process-wide registry every subsystem shares."""
    return _REGISTRY


def reset_registry() -> MetricsRegistry:
    """Replace the process-wide registry (test isolation)."""
    global _REGISTRY
    with _REGISTRY_LOCK:
        _REGISTRY = MetricsRegistry()
    return _REGISTRY
