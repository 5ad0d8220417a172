"""Netlist transport: cold loads, worker memory, shipped bytes.

Measures the pack format (:mod:`repro.io.binfmt`) and the worker pool's one
transport on the ~53K-cell industrial scenario:

* **Cold load** — parsing the design from text (``.hgr``) vs mmap-loading
  the packed ``.nla`` file (arrays touched end to end so pages actually
  fault in).  Acceptance: the packed load is **>= 5x** faster at full
  scale.  Header-only fingerprinting is timed against a full content walk
  for the same reason (warm caches key off that fingerprint).
* **Worker memory and shipped bytes** — the finder run through a
  :class:`WorkerPool` at 2 and 4 workers, for a design loaded from its pack
  file (workers map that file) and for the parsed design (the pool
  serializes it once into an anonymous blob file the workers map).
  Per-worker private memory (``smaps_rollup`` Private_Clean+Private_Dirty,
  reported per ``pool.task`` span) stays flat in worker count because every
  worker serves the design out of the same page-cache copy; each shipment
  is a path of a few hundred bytes (``PoolStats.context_bytes``).

Every measured run must produce a detection report bit-identical to the
serial parsed-text baseline.

Results are written to ``BENCH_transport.json`` at the repo root via
:mod:`benchmarks._record`.  ``REPRO_BENCH_SMOKE=1`` shrinks the scenario
and skips the floors (tiny designs amortize nothing); the parity checks
always run.
"""

import os
import time

try:
    from benchmarks._record import record
except ImportError:  # invoked outside the repo root: benchmarks/ is on sys.path
    from _record import record
from repro.finder.config import FinderConfig
from repro.finder.finder import TangledLogicFinder
from repro.generators.industrial import IndustrialSpec, generate_industrial
from repro.io.binfmt import load_packed, packed_fingerprint, write_packed
from repro.io.hgr import read_hgr, write_hgr
from repro.obs import RunReport, trace
from repro.service.fingerprint import fingerprint_netlist
from repro.service.pool import WorkerPool

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

if SMOKE:
    SPEC = IndustrialSpec(glue_gates=2500, rom_blocks=((5, 16), (5, 16)))
    NUM_SEEDS = 4
    WORKER_COUNTS = (2,)
else:
    SPEC = IndustrialSpec(
        glue_gates=30000,
        rom_blocks=((10, 384), (10, 384), (9, 192)),
    )
    NUM_SEEDS = 8
    WORKER_COUNTS = (2, 4)


def _assert_reports_identical(a, b):
    assert a.num_gtls == b.num_gtls
    assert a.num_orderings == b.num_orderings
    assert a.num_candidates == b.num_candidates
    assert a.rent_exponent == b.rent_exponent
    assert a.gtls == b.gtls


def _touch(netlist):
    """Fault every array page and return a checksum-ish int."""
    arrays = netlist.arrays
    return int(arrays.net_cells.sum() + arrays.cell_nets.sum())


def _measure_cold_load(tmp_dir, netlist):
    hgr_path = os.path.join(tmp_dir, "design.hgr")
    nla_path = os.path.join(tmp_dir, "design.nla")
    write_hgr(netlist, hgr_path)

    start = time.perf_counter()
    parsed = read_hgr(hgr_path)
    _touch(parsed)
    parse_seconds = time.perf_counter() - start

    pack_bytes = write_packed(parsed, nla_path)

    start = time.perf_counter()
    packed = load_packed(nla_path)
    _touch(packed)
    load_seconds = time.perf_counter() - start

    # Fingerprint: header read vs full content walk (cleared memo).
    start = time.perf_counter()
    header_fp = packed_fingerprint(nla_path)
    header_fp_seconds = time.perf_counter() - start
    parsed.derived_cache.clear()
    start = time.perf_counter()
    walk_fp = fingerprint_netlist(parsed)
    walk_fp_seconds = time.perf_counter() - start
    assert header_fp == walk_fp

    row = {
        "cells": parsed.num_cells,
        "nets": parsed.num_nets,
        "pins": parsed.num_pins,
        "pack_bytes": pack_bytes,
        "text_parse_s": round(parse_seconds, 4),
        "packed_load_s": round(load_seconds, 4),
        "load_speedup": round(parse_seconds / max(load_seconds, 1e-9), 2),
        "fingerprint_walk_s": round(walk_fp_seconds, 4),
        "fingerprint_header_s": round(header_fp_seconds, 6),
    }
    return row, parsed, packed


def _measure_pool(netlist, workers, serial_report):
    """One traced pool run: timing, worker memory and shipped bytes."""
    config = FinderConfig(num_seeds=NUM_SEEDS, seed=1)
    trace.enable()
    try:
        with WorkerPool(workers) as pool:
            start = time.perf_counter()
            report = TangledLogicFinder(netlist, config).run(pool=pool)
            run_seconds = time.perf_counter() - start
            stats = pool.stats
        run_report = RunReport.from_tracer()
    finally:
        trace.disable()
    _assert_reports_identical(report, serial_report)
    tasks = [s for s in run_report.spans if s["name"] == "pool.task"]
    private = [s["attrs"].get("private_kb", 0.0) for s in tasks] or [0.0]
    maxrss = [s["attrs"].get("maxrss_kb", 0.0) for s in tasks] or [0.0]
    counters = run_report.counters()
    return {
        "workers": workers,
        "run_s": round(run_seconds, 4),
        "context_shipments": stats.context_shipments,
        "context_bytes_per_shipment": (
            stats.context_bytes // max(stats.context_shipments, 1)
        ),
        "blob_bytes": counters.get("pool.blob_bytes", 0),
        "worker_private_kb_max": round(max(private), 1),
        "worker_private_kb_sum": round(sum(private), 1),
        "worker_maxrss_kb_max": round(max(maxrss), 1),
    }


def test_transport_cold_load_and_worker_memory(tmp_path):
    netlist, _ = generate_industrial(SPEC, seed=5)
    cold, parsed, packed = _measure_cold_load(str(tmp_path), netlist)

    serial_config = FinderConfig(num_seeds=NUM_SEEDS, seed=1)
    serial_report = TangledLogicFinder(parsed, serial_config).run()
    packed_report = TangledLogicFinder(packed, serial_config).run()
    # Packed load reproduces the parsed run exactly.
    _assert_reports_identical(packed_report, serial_report)

    # "file": workers map the design's own pack file; "blob": the pool
    # serializes the parsed design into an anonymous file first.
    results = {"cold_load": cold, "file": [], "blob": []}
    for workers in WORKER_COUNTS:
        results["file"].append(_measure_pool(packed, workers, serial_report))
        results["blob"].append(_measure_pool(parsed, workers, serial_report))

    path = record("transport", results, smoke=SMOKE)
    print(f"\nwrote {path}")
    print(
        f"cold load: text {cold['text_parse_s']}s vs packed "
        f"{cold['packed_load_s']}s ({cold['load_speedup']}x), "
        f"pack {cold['pack_bytes']} bytes"
    )
    for source in ("file", "blob"):
        for row in results[source]:
            print(
                f"{source} w={row['workers']}: run {row['run_s']}s, "
                f"{row['context_bytes_per_shipment']} B/shipment, "
                f"worker private max {row['worker_private_kb_max']} KiB "
                f"(sum {row['worker_private_kb_sum']})"
            )

    # A shipment is a path, whatever the design size; only the blob source
    # serializes, exactly once per run.
    for source in ("file", "blob"):
        for row in results[source]:
            assert row["context_bytes_per_shipment"] < 4096
    assert all(row["blob_bytes"] == 0 for row in results["file"])
    assert all(row["blob_bytes"] == cold["pack_bytes"] for row in results["blob"])

    if not SMOKE:
        assert cold["cells"] >= 50_000
        # Acceptance: packed cold load >= 5x faster than the text parse.
        assert cold["load_speedup"] >= 5.0
        # Header fingerprint is read, not recomputed.
        assert cold["fingerprint_header_s"] < cold["fingerprint_walk_s"] / 5.0
        # Worker peak private memory is flat in worker count: every worker
        # maps one shared copy of the design instead of holding a replica.
        for source in ("file", "blob"):
            by_workers = {row["workers"]: row for row in results[source]}
            assert (
                by_workers[4]["worker_private_kb_max"]
                <= by_workers[2]["worker_private_kb_max"] * 1.3 + 25_000
            )
