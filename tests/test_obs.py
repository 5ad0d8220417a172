"""Tests of the observability layer (:mod:`repro.obs`).

The load-bearing invariants:

* disabled tracing is a no-op (shared null singletons, nothing collected);
* spans nest and parent correctly, including across the WorkerPool's
  seed threads (each seed's spans hang under its ``pool.task`` span);
* metrics tally exactly when many threads update them at once;
* the JSONL sink round-trips through :class:`RunReport`;
* enabling tracing changes neither detection reports nor fingerprints.
"""

from __future__ import annotations

import json
import logging
import os
import pickle

import pytest

from repro.errors import ReproError
from repro.finder import FinderConfig, TangledLogicFinder, find_tangled_logic
from repro.generators.random_gtl import planted_gtl_graph
from repro.obs import RunReport, configure_logging, trace
from repro.obs.lint import check_source, run as lint_run
from repro.obs.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    Counter,
    Histogram,
    MetricRegistry,
)
from repro.obs.trace import NULL_SPAN
from repro.service import ResultStore, WorkerPool, job_fingerprint, report_to_dict

CFG = FinderConfig(num_seeds=6, seed=3)


@pytest.fixture(scope="module")
def small():
    netlist, truth = planted_gtl_graph(800, [60], seed=5)
    return netlist, truth


# ----------------------------------------------------------------------
# Core tracer
# ----------------------------------------------------------------------
def test_disabled_tracing_is_a_shared_noop():
    assert not trace.enabled()
    assert trace.span("anything", key=1) is NULL_SPAN
    assert trace.counter("c") is NULL_COUNTER
    assert trace.gauge("g") is NULL_GAUGE
    assert trace.histogram("h") is NULL_HISTOGRAM
    with trace.span("outer") as outer:
        assert outer is NULL_SPAN
        assert outer.set(a=1) is NULL_SPAN and outer.add("n") is NULL_SPAN
    NULL_COUNTER.add(5)
    NULL_GAUGE.set(3.0)
    NULL_HISTOGRAM.observe(0.1)
    assert trace.get_tracer().finished_spans() == []
    assert len(trace.get_tracer().metrics) == 0


def test_span_nesting_parentage_and_error_attr():
    trace.enable()
    with pytest.raises(ValueError):
        with trace.span("outer", design="d") as outer:
            with trace.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                inner.set(cells=7).add("steps", 2).add("steps")
            raise ValueError("boom")
    spans = {s["name"]: s for s in trace.get_tracer().finished_spans()}
    assert spans["inner"]["parent_id"] == spans["outer"]["span_id"]
    assert spans["outer"]["parent_id"] is None
    assert spans["inner"]["attrs"] == {"cells": 7, "steps": 3}
    assert spans["outer"]["attrs"]["error"] == "ValueError"
    assert spans["outer"]["duration"] >= spans["inner"]["duration"] >= 0.0
    assert spans["outer"]["pid"] == os.getpid()


def test_explicit_parent_hangs_a_thread_span_under_another_threads_span():
    import threading

    trace.enable()
    with trace.span("submit") as outer:
        def work():
            with trace.span("task", parent_id=outer.span_id):
                with trace.span("seed"):
                    pass

        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        with trace.span("after") as after:
            assert after.parent_id == outer.span_id  # this thread's stack intact
    spans = {s["name"]: s for s in trace.get_tracer().finished_spans()}
    assert spans["task"]["parent_id"] == spans["submit"]["span_id"]
    assert spans["seed"]["parent_id"] == spans["task"]["span_id"]


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def test_metric_registry_rejects_kind_conflicts_and_bad_merges():
    """A name registered as one metric kind cannot be fetched as another."""
    reg = MetricRegistry()
    reg.counter("x")
    with pytest.raises(ReproError):
        reg.gauge("x")
    with pytest.raises(ReproError):
        reg.histogram("x")
    assert reg.names() == ["x"]


def test_metrics_tally_exactly_under_concurrent_updates():
    """8 threads (more than the cores) x 50K updates with a tiny switch
    interval: an unlocked read-modify-write would lose some of them."""
    import sys
    from concurrent.futures import ThreadPoolExecutor

    trace.enable()
    calls = 50_000

    def hammer(_):
        counter, histogram = trace.counter("hits"), trace.histogram("sizes")
        for _ in range(calls):
            counter.add(1)
            histogram.observe(0.5)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as threads:
            for future in [threads.submit(hammer, i) for i in range(8)]:
                future.result(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    snapshot = trace.get_tracer().metrics.snapshot()
    assert snapshot["hits"]["value"] == 8 * calls
    assert snapshot["sizes"]["count"] == 8 * calls
    assert snapshot["sizes"]["total"] == 0.5 * 8 * calls
    assert sum(snapshot["sizes"]["buckets"]) == 8 * calls


def test_counter_and_histogram_basics():
    c = Counter()
    c.add()
    c.add(9)
    assert c.value == 10
    h = Histogram()
    assert h.mean == 0.0
    h.observe(1e6)  # overflow bucket
    assert h.buckets[-1] == 1
    snap = h.snapshot()
    assert snap["max"] == 1e6 and snap["count"] == 1


# ----------------------------------------------------------------------
# RunReport + JSONL sink
# ----------------------------------------------------------------------
def test_jsonl_sink_round_trips_through_run_report(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    trace.enable(jsonl_path=path)
    with trace.span("run"):
        with trace.span("phase", k=1):
            pass
        with trace.span("phase"):
            pass
    trace.counter("items").add(3)
    memory = RunReport.from_tracer()
    trace.disable()

    for line in open(path):
        json.loads(line)  # every line is valid JSON
    replayed = RunReport.from_jsonl(path)
    assert len(replayed.spans) == len(memory.spans) == 3
    assert replayed.phase_totals().keys() == memory.phase_totals().keys()
    assert replayed.phase_totals()["phase"]["count"] == 2
    assert memory.counters() == {"items": 3}


def test_run_report_rejects_bad_trace_files(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"name": "ok", "span_id": "a", "duration": 1}\n{nope\n')
    with pytest.raises(ReproError, match="line 2"):
        RunReport.from_jsonl(str(bad))
    with pytest.raises(ReproError, match="cannot read"):
        RunReport.from_jsonl(str(tmp_path / "absent.jsonl"))


def test_run_report_tree_merges_names_and_attributes_self_time():
    spans = [
        {"name": "root", "span_id": "r", "parent_id": None, "duration": 1.0},
        {"name": "leaf", "span_id": "a", "parent_id": "r", "duration": 0.3},
        {"name": "leaf", "span_id": "b", "parent_id": "r", "duration": 0.2},
        # Orphan (parent not in the trace) becomes a root, not an error.
        {"name": "stray", "span_id": "c", "parent_id": "gone", "duration": 0.1},
    ]
    report = RunReport(spans, {"k": {"kind": "counter", "value": 2}})
    tree = {node["name"]: node for node in report.tree()}
    assert tree["root"]["self_s"] == pytest.approx(0.5)
    leaf = tree["root"]["children"][0]
    assert leaf["name"] == "leaf" and leaf["count"] == 2
    assert leaf["total_s"] == pytest.approx(0.5)
    assert tree["stray"]["total_s"] == pytest.approx(0.1)
    summary = report.summary()
    assert "root" in summary and "  leaf" in summary
    assert "k = 2" in summary
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["num_spans"] == 4 and payload["phases"]["leaf"]["count"] == 2


# ----------------------------------------------------------------------
# End-to-end instrumentation
# ----------------------------------------------------------------------
def test_tracing_changes_neither_reports_nor_fingerprints(small):
    netlist, _ = small
    plain = find_tangled_logic(netlist, CFG)
    plain_fp = job_fingerprint(netlist, CFG)
    # An equal copy that shares no ordering memo entries, so the traced run
    # grows (and counts) every ordering itself.
    fresh = pickle.loads(pickle.dumps(netlist))
    trace.enable()
    traced = find_tangled_logic(fresh, CFG)
    traced_fp = job_fingerprint(fresh, CFG)
    report = RunReport.from_tracer()
    trace.disable()
    assert traced.gtls == plain.gtls
    assert traced.rent_exponent == plain.rent_exponent
    assert traced_fp == plain_fp
    counters = report.counters()
    assert counters["finder.seeds"] == CFG.num_seeds
    assert counters["finder.heap_pushes"] > 0
    phases = report.phase_totals()
    for name in ("finder.run", "finder.seed", "finder.phase1", "finder.reduce"):
        assert name in phases


def test_pool_spans_reparent_across_process_boundary(small):
    """Seed spans run on the pool's threads and hang under one ``pool.task``
    span each, itself under the submitting thread's ``pool.run`` span."""
    netlist, _ = small
    serial = find_tangled_logic(netlist, CFG)
    trace.enable()
    with WorkerPool(2) as pool:
        traced = TangledLogicFinder(netlist, CFG).run(pool=pool)
    report = RunReport.from_tracer()
    trace.disable()
    assert traced.gtls == serial.gtls

    spans = report.spans
    by_id = {s["span_id"]: s for s in spans}
    names = {s["name"] for s in spans}
    assert {"pool.run", "pool.task", "finder.seed"} <= names
    for span in spans:
        assert span["parent_id"] is None or span["parent_id"] in by_id

    def ancestors(span):
        while span["parent_id"] is not None:
            span = by_id[span["parent_id"]]
            yield span["name"]

    seeds = [s for s in spans if s["name"] == "finder.seed"]
    assert len(seeds) == CFG.num_seeds
    for seed_span in seeds:
        lineage = list(ancestors(seed_span))
        assert lineage[:2] == ["pool.task", "pool.run"]
    counters = report.counters()
    assert counters["finder.seeds"] == CFG.num_seeds
    assert counters["pool.tasks"] == CFG.num_seeds
    # Task spans carry queue-wait/execute timings.
    for task in (s for s in spans if s["name"] == "pool.task"):
        assert task["attrs"]["queue_wait_s"] >= 0.0
        assert task["attrs"]["execute_s"] >= 0.0


def test_store_emits_hit_miss_put_telemetry(tmp_path, small):
    netlist, _ = small
    report = find_tangled_logic(netlist, CFG)
    trace.enable()
    with ResultStore(str(tmp_path)) as store:
        assert store.get_payload("absent") is None
        store.put_payload("fp", report_to_dict(report), kind="finder_report")
        assert store.get_payload("fp") == report_to_dict(report)
    run_report = RunReport.from_tracer()
    trace.disable()
    counters = run_report.counters()
    assert counters == {"store.misses": 1, "store.puts": 1, "store.hits": 1}
    get_hist = run_report.metrics["store.get_s"]
    assert get_hist["kind"] == "histogram" and get_hist["count"] == 2
    assert run_report.metrics["store.put_s"]["count"] == 1
    assert "store.get_s" in run_report.summary()


def test_flow_stage_spans_carry_cache_attrs(tmp_path, small):
    from repro.flow import DetectStage, Flow, PartitionStage

    netlist, _ = small
    flow = Flow([DetectStage(CFG), PartitionStage()])

    def stage_spans():
        return {
            s["name"]: s
            for s in trace.get_tracer().finished_spans()
            if s["name"].startswith(("stage.", "flow."))
        }

    with ResultStore(str(tmp_path)) as store:
        trace.enable()
        flow.run(netlist, store=store)
        cold = stage_spans()
        trace.enable()  # fresh trace for the warm run
        flow.run(netlist, store=store)
        warm = stage_spans()
        trace.disable()

    assert set(cold) == {"flow.run", "stage.detect", "stage.partition"}
    for name in ("stage.detect", "stage.partition"):
        assert cold[name]["attrs"]["cache"] == "run"
        assert warm[name]["attrs"]["cache"] == "hit"
        assert len(cold[name]["attrs"]["fingerprint"]) == 12
        assert cold[name]["parent_id"] == cold["flow.run"]["span_id"]
        # Same stage, same inputs: the fingerprint is trace-invariant.
        assert warm[name]["attrs"]["fingerprint"] == cold[name]["attrs"]["fingerprint"]


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
def _write_flow_manifest(tmp_path, netlist):
    from repro.io.hgr import write_hgr

    write_hgr(netlist, str(tmp_path / "design.hgr"))
    manifest = tmp_path / "flow.json"
    manifest.write_text(json.dumps({
        "designs": ["design.hgr"],
        "stages": [
            {"stage": "detect", "num_seeds": 6, "seed": 3},
            {"stage": "partition"},
        ],
    }))
    return str(manifest)


def test_cli_flow_run_trace_and_profile(tmp_path, small, capsys):
    from repro.cli import main

    netlist, _ = small
    manifest = _write_flow_manifest(tmp_path, netlist)
    out_path = str(tmp_path / "out.jsonl")
    code = main([
        "flow", "run", manifest, "--no-cache", "--quiet",
        "--trace", out_path, "--profile",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert f"to {out_path}" in out
    assert "span" in out and "cli.flow-run" in out and "stage.detect" in out
    replayed = RunReport.from_jsonl(out_path)
    names = {s["name"] for s in replayed.spans}
    assert {"cli.flow-run", "flow.run", "stage.detect", "stage.partition"} <= names
    # The CLI session tore the global tracer back down.
    assert not trace.enabled()


def test_cli_batch_trace_covers_pool_tasks(tmp_path, small, capsys):
    from repro.cli import main
    from repro.io.hgr import write_hgr

    netlist, _ = small
    write_hgr(netlist, str(tmp_path / "d.hgr"))
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps({
        "defaults": {"num_seeds": 6, "seed": 1},
        "jobs": [{"design": "d.hgr", "label": "j0"}],
    }))
    out_path = str(tmp_path / "batch.jsonl")
    code = main([
        "batch", str(batch), "--no-cache", "--quiet",
        "--workers", "2", "--trace", out_path,
    ])
    assert code == 0
    assert f"to {out_path}" in capsys.readouterr().out
    names = {s["name"] for s in RunReport.from_jsonl(out_path).spans}
    assert {"cli.batch", "service.job", "pool.task", "finder.seed"} <= names


def test_cli_rejects_unknown_log_level(tmp_path, capsys):
    from repro.cli import main

    assert main(["--log-level", "noisy", "stats", str(tmp_path / "x.hgr")]) == 2
    assert "unknown log level" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Logging configuration
# ----------------------------------------------------------------------
def test_configure_logging_levels_env_and_idempotence(monkeypatch):
    logger = configure_logging("debug")
    assert logger.level == logging.DEBUG
    handlers_before = list(logger.handlers)
    configure_logging("info")
    assert logger.level == logging.INFO
    assert logger.handlers == handlers_before  # never stacks handlers

    monkeypatch.setenv("REPRO_LOG_LEVEL", "ERROR")
    assert configure_logging().level == logging.ERROR
    with pytest.raises(ReproError):
        configure_logging("nope")


# ----------------------------------------------------------------------
# Telemetry-hygiene lint
# ----------------------------------------------------------------------
def test_lint_flags_bare_timing_and_print():
    source = (
        "import time\n"
        "def f():\n"
        "    t = time.perf_counter()\n"
        "    print(t)\n"
        "if __name__ == '__main__':\n"
        "    print('fine here')\n"
    )
    violations = check_source(source, "repro/pkg/mod.py")
    assert len(violations) == 2
    assert "mod.py:3" in violations[0] and "time.perf_counter" in violations[0]
    assert "mod.py:4" in violations[1] and "print" in violations[1]
    assert check_source("x = (", "bad.py")[0].startswith("bad.py:")


def test_lint_passes_on_the_repo_source_tree():
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    assert lint_run(src) == []


# ----------------------------------------------------------------------
# Timer rides the same clock
# ----------------------------------------------------------------------
def test_timer_uses_the_obs_clock(monkeypatch):
    from repro.obs import trace as trace_module
    from repro.utils.timer import Timer

    ticks = iter([10.0, 13.5])
    monkeypatch.setattr(trace_module, "clock", lambda: next(ticks))
    with Timer() as timer:
        pass
    assert timer.elapsed == 3.5
    assert timer.minutes == pytest.approx(3.5 / 60)
