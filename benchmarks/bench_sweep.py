"""Sweep scaling: ``run_sweep`` wall clock on 1 vs 2 seed threads.

One deduplicated sweep (2 designs x a 4-point config grid = 8 distinct
deterministic jobs) executed cold through :func:`run_sweep` on a
:class:`BatchRunner` with 1 and with 2 seed threads (no result store, so
every run computes every job). Each thread count gets one untimed warm-up
run, then the median of :data:`REPEATS` timed runs. Two claims:

* **Parity** — the point rows are bit-identical on 1 and 2 threads
  (modulo wall-clock fields). Asserted at every scale; this is the same
  invariant CI's sweep parity smoke checks through the CLI.
* **Scaling** — at full scale 2 threads are **>= 1.25x** faster than one.
  The seeds share the GIL except inside the compiled Phase I kernel, so
  the floor is only asserted on hosts with >= 4 CPUs where that kernel
  loads; elsewhere the measured ratio is recorded (with ``cpu_count`` and
  whether the kernel loaded) but is not an acceptance failure.

Results land in ``BENCH_sweep.json`` (headline: ``speedup_2_threads``),
with the 2-thread warm-up run's :class:`RunReport` embedded so the record
shows where the time went (``pool.task``, ``finder.seed``, ...).
``REPRO_BENCH_SMOKE=1`` shrinks the designs and skips the floor.
"""

import os
import statistics
import time

try:
    from benchmarks._record import record
except ImportError:  # invoked outside the repo root: benchmarks/ is on sys.path
    from _record import record
from repro.finder.config import FinderConfig
from repro.finder.kernel import compiled_kernel
from repro.generators.random_gtl import planted_gtl_graph
from repro.obs import RunReport, trace
from repro.service.aggregate import aggregate_sweep, point_rows
from repro.service.jobs import BatchRunner
from repro.service.sweep import run_sweep

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

if SMOKE:
    DESIGN_CELLS = (400, 500)
    BASE = FinderConfig(num_seeds=4, seed=7)
    GRID = {"lambda_skip": [0, 10], "min_gtl_size": [20, 30]}
    REPEATS = 1
else:
    DESIGN_CELLS = (5_000, 6_000)
    BASE = FinderConfig(num_seeds=16, seed=7)
    GRID = {"lambda_skip": [0, 10], "num_seeds": [16, 24]}
    REPEATS = 3

THREAD_COUNTS = (1, 2)

#: Full-scale floor: on >= 4 CPUs with the compiled kernel, 2 seed threads
#: must be at least this much faster than 1.
SPEEDUP_FLOOR = 1.25


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


def _run_cold(designs, workers):
    start = time.perf_counter()
    with BatchRunner(workers=workers, use_cache=False) as runner:
        outcome = run_sweep(designs, BASE, GRID, runner)
    seconds = time.perf_counter() - start
    assert all(result.ok for result in outcome.job_results)
    assert aggregate_sweep(outcome).failed_points == 0
    return outcome, seconds


def run():
    designs = _designs()
    reference_rows = None
    seconds_by_threads = {}
    run_report = None

    for workers in THREAD_COUNTS:
        # Untimed warm-up (the 2-thread one traced for the record).
        if workers == max(THREAD_COUNTS):
            trace.enable()
            try:
                _run_cold(designs, workers)
                run_report = RunReport.from_tracer()
            finally:
                trace.disable()
        else:
            _run_cold(designs, workers)
        samples = []
        for _ in range(REPEATS):
            outcome, seconds = _run_cold(designs, workers)
            samples.append(seconds)
            rows = _comparable_rows(outcome)
            if reference_rows is None:
                reference_rows = rows
            assert rows == reference_rows, (
                f"{workers}-thread rows diverge from 1-thread rows"
            )
        seconds_by_threads[workers] = statistics.median(samples)
        print(
            f"threads={workers}: {seconds_by_threads[workers]:.2f}s cold "
            f"(median of {REPEATS}, {len(outcome.plan.jobs)} job(s))"
        )

    cpu_count = os.cpu_count() or 1
    kernel = compiled_kernel() is not None
    speedup = round(seconds_by_threads[1] / max(seconds_by_threads[2], 1e-9), 2)
    results = {
        "jobs": len(outcome.plan.jobs),
        "cells": list(DESIGN_CELLS),
        "cpu_count": cpu_count,
        "compiled_kernel": kernel,
        "repeats": REPEATS,
        "seconds_by_threads": {
            str(count): round(seconds, 4)
            for count, seconds in seconds_by_threads.items()
        },
        "speedup_2_threads": speedup,
        "parity": True,  # asserted above at every thread count
        "smoke": SMOKE,
    }
    if not SMOKE and cpu_count >= 4 and kernel:
        assert speedup >= SPEEDUP_FLOOR, (
            f"2 seed threads only {speedup}x faster than 1 "
            f"on {cpu_count} CPUs (floor {SPEEDUP_FLOOR}x)"
        )
    record(
        "sweep",
        results,
        smoke=SMOKE,
        headline="speedup_2_threads",
        higher_is_better=True,
        run_report=run_report.to_dict() if run_report else None,
    )
    print(f"speedup on 2 seed threads: x{speedup} ({cpu_count} CPU(s))")
    return results


def test_sweep_thread_scaling():
    """Pytest entry point (CI smoke runs this with REPRO_BENCH_SMOKE=1)."""
    run()


if __name__ == "__main__":
    run()
