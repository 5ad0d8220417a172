"""Typed in-process metric aggregates: Counter, Gauge, Histogram.

Metrics are cheap running aggregates, not event streams: a counter is one
integer, a histogram is a handful of bucket counts.  Every metric can
:meth:`snapshot` itself into a plain dict (JSON-serializable).  Updates
and the registry's get-or-create are serialized by a lock, so the seed
threads of :mod:`repro.service.pool` tally into one registry without
losing counts.

A :class:`MetricRegistry` names metrics and creates them on first use.
When tracing is disabled, the module-level accessors in
:mod:`repro.obs.trace` hand out the shared no-op instances below instead,
so instrumented code never branches on "is telemetry on?" itself.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import Any, Dict, Tuple

from repro.errors import ReproError

#: Default histogram bucket upper bounds (seconds-oriented log scale).
#: Observations above the last bound land in the open overflow bucket.
DEFAULT_BOUNDS: Tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0,
)


class Counter:
    """A monotonically growing tally."""

    __slots__ = ("value", "_lock")
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0
        self._lock = threading.Lock()

    def add(self, amount: int = 1) -> None:
        """Increase the tally by ``amount``."""
        with self._lock:
            self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """A last-written value (e.g. a queue depth, a configuration knob)."""

    __slots__ = ("value", "updates", "_lock")
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0
        self.updates = 0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Record the current value."""
        with self._lock:
            self.value = value
            self.updates += 1

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value, "updates": self.updates}


class Histogram:
    """Count/total/min/max plus fixed log-scale buckets.

    Buckets are cumulative-free: ``buckets[i]`` counts observations with
    ``value <= bounds[i]`` (and above the previous bound); the final slot
    is the overflow bucket.
    """

    __slots__ = ("count", "total", "min", "max", "buckets", "bounds", "_lock")
    kind = "histogram"

    def __init__(self, bounds: Tuple[float, ...] = DEFAULT_BOUNDS) -> None:
        self._lock = threading.Lock()
        self.bounds = tuple(bounds)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.buckets = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        """Record one observation."""
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            self.buckets[bisect_right(self.bounds, value)] += 1

    @property
    def mean(self) -> float:
        """Average observation (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "buckets": list(self.buckets),
            "bounds": list(self.bounds),
        }


class MetricRegistry:
    """Named metrics, created on first use, snapshot as one unit."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}
        self._lock = threading.Lock()  # guards get-or-create

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self):
        """Registered metric names in insertion order."""
        return list(self._metrics)

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = self._metrics[name] = cls()
        if not isinstance(metric, cls):
            raise ReproError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"not {cls.kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        """The counter named ``name`` (created on first use)."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name`` (created on first use)."""
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """The histogram named ``name`` (created on first use)."""
        return self._get(name, Histogram)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Plain-dict state of every metric."""
        return {name: metric.snapshot() for name, metric in self._metrics.items()}


class _NullCounter:
    """Shared do-nothing counter handed out while tracing is disabled."""

    __slots__ = ()
    value = 0

    def add(self, amount: int = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    value = 0.0

    def set(self, value: float) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    count = 0

    def observe(self, value: float) -> None:
        pass


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "DEFAULT_BOUNDS",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
]
