"""Hierarchical span tracing with a disabled-mode no-op fast path.

One process-global :class:`Tracer` (reachable through the module-level
functions) produces nested :class:`Span` records: name, attributes,
monotonic start/duration and parent span id.  The current span is tracked
per thread, so ``with span(...)`` nests correctly across threads without
any caller bookkeeping.

Design constraints, in order:

1. **Disabled is free.**  ``span()`` returns the shared :data:`NULL_SPAN`
   singleton after a single attribute check; nothing is allocated, no
   clock is read.  Instrumentation can therefore live inside kernels.
2. **Telemetry never changes results.**  Nothing here feeds back into the
   algorithms or the content fingerprints; enabling tracing is observably
   a no-op apart from the trace itself (regression-tested).
3. **Works across threads.**  A span opened on a pool thread names its
   parent explicitly (``span(..., parent_id=...)``), so seed work on the
   :mod:`repro.service.pool` threads hangs under the submitting thread's
   span; finished spans and metric updates are serialized by locks.

The one monotonic clock of the codebase is :func:`clock`;
:class:`repro.utils.timer.Timer` wraps it too, so every reported duration
comes from the same time source.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from typing import Any, Dict, List, Optional

from repro.obs.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    MetricRegistry,
)


def clock() -> float:
    """The codebase's monotonic clock (fractional seconds)."""
    return time.perf_counter()


def _new_span_id() -> str:
    # Random ids (not a counter) so ids stay unique across the CLI runs
    # and daemon whose traces may be read side by side.
    return uuid.uuid4().hex[:16]


_CURRENT = object()  # sentinel: "parent under the calling thread's span"


class Span:
    """One traced unit of work; a context manager.

    Entering records the start time and pushes the span onto the calling
    thread's context stack (setting ``parent_id`` from the previous top,
    unless the span was opened with an explicit parent); exiting computes
    the duration, pops the stack and hands the finished record to the
    tracer's sinks.
    """

    __slots__ = ("name", "span_id", "parent_id", "attrs", "start", "duration", "_tracer")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attrs: Dict[str, Any],
        parent_id: Any = _CURRENT,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = _new_span_id()
        self.parent_id: Any = parent_id
        self.start = 0.0
        self.duration = 0.0

    def set(self, **attrs: Any) -> "Span":
        """Attach or overwrite attributes; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def add(self, key: str, amount: float = 1) -> "Span":
        """Increment the numeric attribute ``key`` (created at 0)."""
        self.attrs[key] = self.attrs.get(key, 0) + amount
        return self

    def __enter__(self) -> "Span":
        stack = self._tracer._stack()
        if self.parent_id is _CURRENT:
            self.parent_id = stack[-1].span_id if stack else None
        stack.append(self)
        self.start = clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = clock() - self.start
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        stack = self._tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        self._tracer._finish(self.to_dict())
        return False

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (the JSONL record)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "pid": os.getpid(),
            "attrs": self.attrs,
        }


class _NullSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()
    span_id = None
    parent_id = None

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def add(self, key: str, amount: float = 1) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NULL_SPAN = _NullSpan()


class JsonlSink:
    """Writes each finished span as one compact JSON line."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = open(path, "w")

    def emit(self, span_dict: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(span_dict, separators=(",", ":")) + "\n")

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class Tracer:
    """Produces spans and owns the in-memory collector + optional sink."""

    def __init__(self) -> None:
        self.enabled = False
        self.metrics = MetricRegistry()
        self._sink: Optional[JsonlSink] = None
        self._spans: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()  # guards _spans and the sink

    # -- internal ------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _finish(self, span_dict: Dict[str, Any]) -> None:
        with self._lock:
            self._spans.append(span_dict)
            if self._sink is not None:
                self._sink.emit(span_dict)

    # -- lifecycle -----------------------------------------------------
    def enable(self, jsonl_path: Optional[str] = None) -> None:
        """Start a fresh trace; optionally stream spans to ``jsonl_path``."""
        if self._sink is not None:
            self._sink.close()
        self._spans = []
        self.metrics = MetricRegistry()
        self._local = threading.local()
        self._sink = JsonlSink(jsonl_path) if jsonl_path else None
        self.enabled = True

    def disable(self) -> None:
        """Stop tracing and close the sink (collected spans are retained
        until the next :meth:`enable`)."""
        self.enabled = False
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    # -- span creation -------------------------------------------------
    def span(self, name: str, parent_id: Any = _CURRENT, **attrs: Any):
        """A context-managed span, or :data:`NULL_SPAN` when disabled.

        ``parent_id`` defaults to the calling thread's current span; pass
        the id of a span open on another thread to hang this one under it.
        """
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, attrs, parent_id)

    def finished_spans(self) -> List[Dict[str, Any]]:
        """All spans finished since the last :meth:`enable` (copy)."""
        return list(self._spans)


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-global tracer."""
    return _TRACER


def enabled() -> bool:
    """True while the global tracer is collecting."""
    return _TRACER.enabled


def enable(jsonl_path: Optional[str] = None) -> None:
    """Enable the global tracer (fresh trace; optional JSONL sink)."""
    _TRACER.enable(jsonl_path)


def disable() -> None:
    """Disable the global tracer and close its sink."""
    _TRACER.disable()


def span(name: str, parent_id: Any = _CURRENT, **attrs: Any):
    """A span on the global tracer (:data:`NULL_SPAN` when disabled)."""
    return _TRACER.span(name, parent_id=parent_id, **attrs)


def counter(name: str):
    """The named global counter (shared no-op instance when disabled)."""
    if not _TRACER.enabled:
        return NULL_COUNTER
    return _TRACER.metrics.counter(name)


def gauge(name: str):
    """The named global gauge (shared no-op instance when disabled)."""
    if not _TRACER.enabled:
        return NULL_GAUGE
    return _TRACER.metrics.gauge(name)


def histogram(name: str):
    """The named global histogram (shared no-op instance when disabled)."""
    if not _TRACER.enabled:
        return NULL_HISTOGRAM
    return _TRACER.metrics.histogram(name)


__all__ = [
    "JsonlSink",
    "NULL_SPAN",
    "Span",
    "Tracer",
    "clock",
    "counter",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "get_tracer",
    "histogram",
    "span",
]
