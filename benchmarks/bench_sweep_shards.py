"""Sharded sweep scaling: coordinator wall-clock vs shard count.

One deduplicated sweep (2 designs x a 4-point config grid = 8 distinct
deterministic jobs) executed cold through :class:`SweepCoordinator` at 1,
2 and 4 shards, each against a fresh cache. Two claims:

* **Parity** — the merged point rows are bit-identical at every shard
  count (modulo wall-clock fields). Asserted at every scale; this is the
  same invariant CI's sharded-parity smoke checks through the CLI.
* **Scaling** — with 4 worker processes the cold sweep is **>= 2x**
  faster than one process. Shard parallelism is process parallelism, so
  the floor is only asserted at full scale on machines with >= 4 CPUs;
  on smaller hosts the measured ratio is recorded (with ``cpu_count``,
  so the trajectory stays interpretable) but cannot exceed ~1x and is
  not an acceptance failure of the coordinator.

The record also times the same sweep in one process on two seed threads
(``seconds_1_shard_2_threads``, parity asserted), the in-process
alternative to shard processes.

Results land in ``BENCH_sweep.json`` (headline: ``speedup_4_shards``),
with the 4-shard run's :class:`RunReport` embedded so the record shows
the per-shard span breakdown (``sweep.shard``) and the plan phase.
``REPRO_BENCH_SMOKE=1`` shrinks the designs and skips the floor.
"""

import os
import time

try:
    from benchmarks._record import record
except ImportError:  # invoked outside the repo root: benchmarks/ is on sys.path
    from _record import record
from repro.finder.config import FinderConfig
from repro.generators.random_gtl import planted_gtl_graph
from repro.obs import RunReport, trace
from repro.service.aggregate import aggregate_sweep, point_rows
from repro.service.coordinator import SweepCoordinator

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

if SMOKE:
    DESIGN_CELLS = (400, 500)
    BASE = FinderConfig(num_seeds=4, seed=7)
    GRID = {"lambda_skip": [0, 10], "min_gtl_size": [20, 30]}
else:
    DESIGN_CELLS = (5_000, 6_000)
    BASE = FinderConfig(num_seeds=16, seed=7)
    GRID = {"lambda_skip": [0, 10], "num_seeds": [16, 24]}

SHARD_COUNTS = (1, 2, 4)

#: Seed threads of the one-process comparison run.
THREADS = 2

#: Full-scale floor: a 4-shard cold sweep on >= 4 CPUs must at least
#: halve the single-process wall clock.
SPEEDUP_FLOOR = 2.0


def _designs():
    designs = []
    for index, cells in enumerate(DESIGN_CELLS):
        netlist, _ = planted_gtl_graph(cells, [cells // 12], seed=index)
        designs.append((f"d{index}", netlist))
    return designs


def _comparable_rows(outcome):
    rows = point_rows(outcome)
    for row in rows:
        row.pop("runtime_seconds")
        row.pop("cached")
        if row["report"]:
            row["report"].pop("runtime_seconds")
    return rows


def _run_cold(designs, num_shards, cache_dir, workers=1):
    start = time.perf_counter()
    outcome = SweepCoordinator(
        num_shards, cache_dir=cache_dir, workers=workers
    ).run(designs, BASE, GRID)
    seconds = time.perf_counter() - start
    assert all(result.ok for result in outcome.job_results)
    assert not outcome.failed_shards
    return outcome, seconds


def run(tmp_dir):
    designs = _designs()
    reference_rows = None
    seconds_by_count = {}
    run_report = None

    for num_shards in SHARD_COUNTS:
        cache_dir = os.path.join(tmp_dir, f"cache-{num_shards}")
        if num_shards == max(SHARD_COUNTS):
            trace.enable()
            try:
                outcome, seconds = _run_cold(designs, num_shards, cache_dir)
                run_report = RunReport.from_tracer()
            finally:
                trace.disable()
        else:
            outcome, seconds = _run_cold(designs, num_shards, cache_dir)
        seconds_by_count[num_shards] = seconds

        rows = _comparable_rows(outcome)
        if reference_rows is None:
            reference_rows = rows
        else:
            assert rows == reference_rows, (
                f"{num_shards}-shard rows diverge from 1-shard rows"
            )
        aggregate = aggregate_sweep(outcome)
        assert aggregate.failed_points == 0
        print(
            f"shards={num_shards}: {seconds:.2f}s cold "
            f"({aggregate.jobs} job(s), {len(aggregate.shards)} shard(s))"
        )

    # The same sweep in one process with two seed threads per job: the
    # in-process alternative to shard processes.
    outcome, threads_seconds = _run_cold(
        designs, 1, os.path.join(tmp_dir, "cache-threads"), workers=THREADS
    )
    assert _comparable_rows(outcome) == reference_rows
    print(f"shards=1, {THREADS} seed threads: {threads_seconds:.2f}s cold")

    cpu_count = os.cpu_count() or 1
    speedup = round(seconds_by_count[1] / max(seconds_by_count[4], 1e-9), 2)
    results = {
        "jobs": len(reference_rows),
        "cells": list(DESIGN_CELLS),
        "cpu_count": cpu_count,
        "seconds_by_shards": {
            str(count): round(seconds, 4)
            for count, seconds in seconds_by_count.items()
        },
        "speedup_4_shards": speedup,
        f"seconds_1_shard_{THREADS}_threads": round(threads_seconds, 4),
        "parity": True,  # asserted above at every shard count
        "smoke": SMOKE,
    }
    if not SMOKE and cpu_count >= 4:
        assert speedup >= SPEEDUP_FLOOR, (
            f"4-shard cold sweep only {speedup}x faster than 1 shard "
            f"on {cpu_count} CPUs (floor {SPEEDUP_FLOOR}x)"
        )
    record(
        "sweep",
        results,
        smoke=SMOKE,
        headline="speedup_4_shards",
        higher_is_better=True,
        run_report=run_report.to_dict() if run_report else None,
    )
    print(f"speedup at 4 shards: x{speedup} ({cpu_count} CPU(s))")
    return results


def test_sweep_shard_scaling(tmp_path):
    """Pytest entry point (CI smoke runs this with REPRO_BENCH_SMOKE=1)."""
    run(str(tmp_path))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp_dir:
        run(tmp_dir)
