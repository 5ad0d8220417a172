"""Per-layer attribution for the traced runs.

The program already emits spans and counters for the finder phases, the
worker pool, the result store and the incremental engine.  The layers it
does not time itself (pack/load, CSR build, fingerprinting, the report
codec, ECO apply/persist, sweep planning) are timed here by wrapping each
layer's entry function in a ``repro.obs`` span for the duration of the
traced run.  Every module that imported the function gets the wrapper,
and :func:`uninstrument` puts the originals back.

Per-layer values are totals over the traced pass (its set-up included)
unless the name says otherwise.  Span times are self times (minus the
spans nested in them), except ``incremental.patch_ms``: the whole patch
step, i.e. re-running the dirty seeds and merging the outcomes.
"""

from __future__ import annotations

import functools
import importlib
import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.obs import RunReport, trace

from harness import median

#: ``(span name, module, function)`` of every layer entry the benchmark times.
WRAPPED: Tuple[Tuple[str, str, str], ...] = (
    ("io.pack", "repro.io", "write_packed"),
    ("io.load", "repro.io", "load_packed"),
    ("netlist.arrays", "repro.netlist.arrays", "build_netlist_arrays"),
    ("fingerprint.netlist", "repro.service.fingerprint", "fingerprint_netlist"),
    ("codec.encode", "repro.service.codec", "report_to_dict"),
    ("codec.decode", "repro.service.codec", "report_from_dict"),
    ("incremental.apply", "repro.incremental.delta", "apply_delta"),
    ("incremental.persist", "repro.incremental.engine", "_persist"),
    ("sweep.plan", "repro.service.sweep", "plan_sweep"),
)

#: Names and units of every per-layer metric, in report order.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("finder.phase1_s", "s"),
    ("finder.phase2_s", "s"),
    ("finder.phase3_s", "s"),
    ("finder.absorb_steps", "count"),
    ("finder.heap_pushes", "count"),
    ("pool.context_shipments", "count"),
    ("pool.context_bytes", "B"),
    ("pool.task_overhead_s", "s"),
    ("pool.idle_frac", "ratio"),
    ("store.get_ms", "ms"),
    ("store.put_ms", "ms"),
    ("store.hit_ratio", "ratio"),
    ("codec.encode_ms", "ms"),
    ("codec.decode_ms", "ms"),
    ("sweep.plan_ms", "ms"),
    ("io.pack_ms", "ms"),
    ("io.load_ms", "ms"),
    ("netlist.arrays_ms", "ms"),
    ("fingerprint.netlist_ms", "ms"),
    ("incremental.apply_ms", "ms"),
    ("incremental.dirty_ms", "ms"),
    ("incremental.patch_ms", "ms"),
    ("incremental.persist_ms", "ms"),
    ("incremental.seeds_recomputed", "count"),
    ("server.overhead_ms", "ms"),
    ("server.queue_wait_ms", "ms"),
    ("server.warm_hit_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
)

_saved: List[Tuple[Any, str, Callable]] = []


def _spanned(name: str, original: Callable) -> Callable:
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with trace.span(name):
            return original(*args, **kwargs)

    return wrapper


def instrument() -> None:
    """Wrap every :data:`WRAPPED` function wherever it was imported."""
    # Import every module that binds one of the functions first, so each
    # binding is patched (the daemon imports ``load_packed`` by name).
    for _, module_name, _ in WRAPPED:
        importlib.import_module(module_name)
    importlib.import_module("repro.server.daemon")
    for span_name, module_name, attr in WRAPPED:
        original = getattr(sys.modules[module_name], attr, None)
        if original is None:
            continue  # the layer moved; its metric reads 0
        wrapper = _spanned(span_name, original)
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name.startswith("repro") and getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
                _saved.append((module, attr, original))


def uninstrument() -> None:
    while _saved:
        module, attr, original = _saved.pop()
        setattr(module, attr, original)


#: The benchmark's span around the measured sweep; the pool metrics count
#: only the worker tasks under it (not the set-up's pre-warm).
SWEEP_SPAN = "bench.sweep"


def _pool_metrics(report: RunReport, workers: int) -> Tuple[float, float]:
    """``(task overhead s, idle fraction)`` of the tasks in the sweep."""
    sweeps = [s for s in report.spans if s["name"] == SWEEP_SPAN]
    if not sweeps:
        return 0.0, 0.0
    parent_of = {s["span_id"]: s.get("parent_id") for s in report.spans}
    name_of = {s["span_id"]: s["name"] for s in report.spans}

    def ancestor(span: Dict[str, Any], name: str):
        node = span.get("parent_id")
        while node is not None and name_of.get(node) != name:
            node = parent_of.get(node)
        return node

    tasks = {
        s["span_id"]: s for s in report.spans
        if s["name"] == "pool.task" and ancestor(s, SWEEP_SPAN)
    }
    seed_time = dict.fromkeys(tasks, 0.0)
    for span in report.spans:
        if span["name"] == "finder.seed":
            task = ancestor(span, "pool.task")
            if task in seed_time:
                seed_time[task] += span["duration"]
    # Worker time of a task outside its seeds: dispatch and context install
    # (before the worker's clock starts) plus batch bookkeeping.
    overhead = sum(
        t["attrs"].get("queue_wait_s", 0.0)
        + max(0.0, t["attrs"].get("execute_s", 0.0) - seed_time[i])
        for i, t in tasks.items()
    )
    busy = sum(t["attrs"].get("execute_s", 0.0) for t in tasks.values())
    capacity = workers * sum(s["duration"] for s in sweeps)
    return overhead, max(0.0, 1.0 - busy / capacity)


def layer_metrics(
    report: RunReport,
    *,
    pool_workers: int,
    overhead_ms: Sequence[float],
    queue_wait_ms: Sequence[float],
    warm_hit_ms: Sequence[float],
    trace_overhead: float,
) -> Dict[str, float]:
    """Every :data:`LAYER_METRICS` value from one traced pass."""
    phases = report.phase_totals()
    counters = report.counters()

    def self_s(name: str) -> float:
        return phases.get(name, {}).get("self_s", 0.0)

    def total_s(name: str) -> float:
        return phases.get(name, {}).get("total_s", 0.0)

    def hist_mean_ms(name: str) -> float:
        snap = report.metrics.get(name, {})
        count = snap.get("count", 0)
        return 1000.0 * snap.get("total", 0.0) / count if count else 0.0

    task_overhead, idle_frac = _pool_metrics(report, pool_workers)
    hits = counters.get("store.hits", 0)
    lookups = hits + counters.get("store.misses", 0)
    return {
        "finder.phase1_s": self_s("finder.phase1"),
        "finder.phase2_s": self_s("finder.phase2"),
        "finder.phase3_s": self_s("finder.phase3"),
        "finder.absorb_steps": counters.get("finder.absorb_steps", 0),
        "finder.heap_pushes": counters.get("finder.heap_pushes", 0),
        "pool.context_shipments": counters.get("pool.context_shipments", 0),
        "pool.context_bytes": counters.get("pool.context_bytes", 0),
        "pool.task_overhead_s": task_overhead,
        "pool.idle_frac": idle_frac,
        "store.get_ms": hist_mean_ms("store.get_s"),
        "store.put_ms": hist_mean_ms("store.put_s"),
        "store.hit_ratio": hits / lookups if lookups else 0.0,
        "codec.encode_ms": 1000.0 * self_s("codec.encode"),
        "codec.decode_ms": 1000.0 * self_s("codec.decode"),
        "sweep.plan_ms": 1000.0 * self_s("sweep.plan"),
        "io.pack_ms": 1000.0 * self_s("io.pack"),
        "io.load_ms": 1000.0 * self_s("io.load"),
        "netlist.arrays_ms": 1000.0 * self_s("netlist.arrays"),
        "fingerprint.netlist_ms": 1000.0 * self_s("fingerprint.netlist"),
        "incremental.apply_ms": 1000.0 * self_s("incremental.apply"),
        "incremental.dirty_ms": 1000.0 * self_s("incremental.dirty"),
        "incremental.patch_ms": 1000.0 * total_s("incremental.patch"),
        "incremental.persist_ms": 1000.0 * self_s("incremental.persist"),
        "incremental.seeds_recomputed": counters.get(
            "incremental.seeds_recomputed", 0
        ),
        "server.overhead_ms": median(overhead_ms),
        "server.queue_wait_ms": median(queue_wait_ms),
        "server.warm_hit_ms": median(warm_hit_ms),
        "trace.overhead_frac": trace_overhead,
    }


def layer_table(report: RunReport) -> List[str]:
    """Human-readable self time and count of every span name, plus counters."""
    lines = [f"{'span':32s} {'count':>7s} {'total_s':>9s} {'self_s':>9s}"]
    phases = sorted(
        report.phase_totals().items(), key=lambda item: -item[1]["self_s"]
    )
    for name, entry in phases:
        lines.append(
            f"{name:32s} {entry['count']:7d} {entry['total_s']:9.4f} "
            f"{entry['self_s']:9.4f}"
        )
    for name, value in sorted(report.counters().items()):
        lines.append(f"counter {name:24s} {value}")
    return lines
