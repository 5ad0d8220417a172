"""Zero-dependency observability layer: spans, metrics, run reports.

``repro.obs`` is the single place the rest of the codebase gets its
telemetry primitives from:

* :mod:`repro.obs.trace` — hierarchical spans with thread-local context
  propagation, a process-global :class:`~repro.obs.trace.Tracer`, and a
  no-op fast path when tracing is disabled (the default).
* :mod:`repro.obs.metrics` — typed ``Counter``/``Gauge``/``Histogram``
  aggregates, thread-safe, with snapshots.
* :mod:`repro.obs.report` — :class:`~repro.obs.report.RunReport`, the
  aggregated view (span tree, per-phase totals, counter totals) exported
  by the CLI's ``--profile`` flag and embedded into benchmark records.
* :mod:`repro.obs.logcfg` — :func:`configure_logging`, the one place
  stdlib logging is configured (stderr, ISO timestamps,
  ``REPRO_LOG_LEVEL`` honored).
* :mod:`repro.obs.lint` — ``python -m repro.obs.lint`` walks ``src/``
  and fails on bare ``time.perf_counter()`` / ``print()`` calls outside
  this layer and the CLI.

Everything here is stdlib-only and cheap to import; hot code paths pay a
single attribute check per span when tracing is off.
"""

from repro.obs import trace
from repro.obs.logcfg import configure_logging
from repro.obs.metrics import Counter, Gauge, Histogram, MetricRegistry
from repro.obs.report import RunReport
from repro.obs.trace import (
    NULL_SPAN,
    JsonlSink,
    Span,
    Tracer,
    clock,
    counter,
    disable,
    enable,
    enabled,
    gauge,
    get_tracer,
    histogram,
    span,
)

__all__ = [
    "NULL_SPAN",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MetricRegistry",
    "RunReport",
    "Span",
    "Tracer",
    "clock",
    "configure_logging",
    "counter",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "get_tracer",
    "histogram",
    "span",
    "trace",
]
