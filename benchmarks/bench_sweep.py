"""Sweep benchmarks: seed-thread scaling, and ordering reuse on one design.

**Scaling.** One deduplicated sweep (2 designs x a 4-point config grid =
8 distinct deterministic jobs) executed cold through :func:`run_sweep` on
a :class:`BatchRunner` with 1 and with 2 seed threads (no result store,
and every run on fresh copies of the designs, so every run grows every
ordering). Each thread count gets one untimed warm-up run, then the
median of :data:`REPEATS` timed runs. Two claims:

* **Parity** — the point rows are bit-identical on 1 and 2 threads
  (modulo wall-clock fields). Asserted at every scale; this is the same
  invariant CI's sweep parity smoke checks through the CLI.
* **Scaling** — at full scale 2 threads are **>= 1.25x** faster than one.
  The seeds share the GIL except inside the compiled Phase I kernel, so
  the floor is only asserted on hosts with >= 4 CPUs where that kernel
  loads; elsewhere the measured ratio is recorded (with ``cpu_count`` and
  whether the kernel loaded) but is not an acceptance failure.

**Reuse.** The perfbench ``sweep-grid`` grid (finder seed x
``lambda_skip`` {20, 10} x ``min_gtl_size`` {30, 60}, 4 seeds per point)
on the 53K-cell industrial scenario, run two ways on 2 seed threads with
no result store: all points on one loaded netlist, where the ordering
memo of :func:`~repro.finder.ordering.grow_with_curves` hands the
``min_gtl_size`` 60 points the orderings the 30 points grew, and every
point on its own fresh load of the same pack file, where the memo starts
cold each time. The rows are asserted bit-identical; the record keeps
both wall clocks, ``finder.absorb_steps`` and ``finder.ordering_reuses``.

Results land in ``BENCH_sweep.json`` (headline: ``speedup_2_threads``,
the ratio of the two medians), with every timed repeat's seconds
(``samples_by_threads``) and their spread, max minus min
(``spread_by_threads``), per thread count, so a ratio inside the noise
reads as such, and with the 2-thread warm-up run's :class:`RunReport` embedded so the record
shows where the time went (``pool.task``, ``finder.seed``, ...).
``REPRO_BENCH_SMOKE=1`` shrinks the designs and skips the floor.
"""

import os
import pickle
import statistics
import tempfile
import time

try:
    from benchmarks._record import record
except ImportError:  # invoked outside the repo root: benchmarks/ is on sys.path
    from _record import record
from repro.finder.config import FinderConfig
from repro.finder.kernel import compiled_kernel
from repro.generators.industrial import IndustrialSpec, generate_industrial
from repro.generators.random_gtl import planted_gtl_graph
from repro.io.binfmt import load_packed, write_packed
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
    REUSE_SPEC = IndustrialSpec(glue_gates=1200, rom_blocks=((4, 10),))
    REUSE_SEEDS = 2
else:
    DESIGN_CELLS = (5_000, 6_000)
    BASE = FinderConfig(num_seeds=16, seed=7)
    GRID = {"lambda_skip": [0, 10], "num_seeds": [16, 24]}
    REPEATS = 3
    # perfbench's 53K-cell scenario design and sweep-grid shape.
    REUSE_SPEC = IndustrialSpec(
        glue_gates=30000, rom_blocks=((10, 384), (10, 384), (9, 192))
    )
    REUSE_SEEDS = 4

REUSE_BASE = FinderConfig(num_seeds=4)
REUSE_GRID = {
    "seed": list(range(101, 101 + REUSE_SEEDS)),
    "lambda_skip": [20, 10],
    "min_gtl_size": [30, 60],
}

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


def _fresh(designs):
    """Equal copies of ``designs`` that share no ordering memo entries."""
    return [(label, pickle.loads(pickle.dumps(netlist))) for label, netlist in designs]


def _run_cold(designs, workers, base=BASE, grid=GRID):
    start = time.perf_counter()
    with BatchRunner(workers=workers) as runner:
        outcome = run_sweep(designs, base, grid, runner)
    seconds = time.perf_counter() - start
    assert all(result.ok for result in outcome.job_results)
    assert aggregate_sweep(outcome).failed_points == 0
    return outcome, seconds


def _traced(call):
    """``(call(), counters)`` with tracing on for the call."""
    trace.enable()
    try:
        result = call()
        counters = RunReport.from_tracer().counters()
    finally:
        trace.disable()
    return result, counters


def _point_key(row):
    return repr(sorted(row["overrides"].items()))


def run_reuse():
    """The reuse row: one netlist against a fresh load per point."""
    netlist, _ = generate_industrial(REUSE_SPEC, seed=1)
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "design.nla")
        write_packed(netlist, path)
        (shared, shared_s), shared_counters = _traced(
            lambda: _run_cold([("design", load_packed(path))], 2, REUSE_BASE, REUSE_GRID)
        )

        def one_load_per_point():
            rows, seconds = [], 0.0
            for seed in REUSE_GRID["seed"]:
                for skip in REUSE_GRID["lambda_skip"]:
                    for size in REUSE_GRID["min_gtl_size"]:
                        point = {"seed": [seed], "lambda_skip": [skip],
                                 "min_gtl_size": [size]}
                        outcome, point_s = _run_cold(
                            [("design", load_packed(path))], 2, REUSE_BASE, point
                        )
                        rows += _comparable_rows(outcome)
                        seconds += point_s
            return rows, seconds

        (fresh_rows, fresh_s), fresh_counters = _traced(one_load_per_point)
    shared_rows = _comparable_rows(shared)
    assert sorted(shared_rows, key=_point_key) == sorted(fresh_rows, key=_point_key), (
        "rows on one netlist differ from rows on a fresh load per point"
    )
    reuses = shared_counters.get("finder.ordering_reuses", 0)
    assert reuses > 0
    assert shared_counters["finder.absorb_steps"] < fresh_counters["finder.absorb_steps"]
    result = {
        "cells": netlist.num_cells,
        "points": len(shared_rows),
        "seconds_one_netlist": round(shared_s, 4),
        "seconds_fresh_loads": round(fresh_s, 4),
        "speedup": round(fresh_s / max(shared_s, 1e-9), 2),
        "absorb_steps_one_netlist": shared_counters["finder.absorb_steps"],
        "absorb_steps_fresh_loads": fresh_counters["finder.absorb_steps"],
        "ordering_reuses_one_netlist": reuses,
        "ordering_reuses_fresh_loads": fresh_counters.get("finder.ordering_reuses", 0),
        "parity": True,  # asserted above
    }
    print(
        f"reuse: {result['points']} points at {result['cells']} cells, one netlist "
        f"{shared_s:.2f}s vs fresh loads {fresh_s:.2f}s; absorb steps "
        f"{result['absorb_steps_one_netlist']} vs {result['absorb_steps_fresh_loads']}, "
        f"{reuses} ordering reuse(s)"
    )
    return result


def run():
    designs = _designs()
    reference_rows = None
    samples_by_threads = {}
    run_report = None

    for workers in THREAD_COUNTS:
        # Untimed warm-up (the 2-thread one traced for the record).
        if workers == max(THREAD_COUNTS):
            trace.enable()
            try:
                _run_cold(_fresh(designs), workers)
                run_report = RunReport.from_tracer()
            finally:
                trace.disable()
        else:
            _run_cold(_fresh(designs), workers)
        samples = []
        for _ in range(REPEATS):
            outcome, seconds = _run_cold(_fresh(designs), workers)
            samples.append(seconds)
            rows = _comparable_rows(outcome)
            if reference_rows is None:
                reference_rows = rows
            assert rows == reference_rows, (
                f"{workers}-thread rows diverge from 1-thread rows"
            )
        samples_by_threads[workers] = samples
        print(
            f"threads={workers}: {statistics.median(samples):.2f}s cold "
            f"(median of {REPEATS}, spread {max(samples) - min(samples):.2f}s, "
            f"{len(outcome.plan.jobs)} job(s))"
        )

    cpu_count = os.cpu_count() or 1
    kernel = compiled_kernel() is not None
    seconds_by_threads = {
        count: statistics.median(samples)
        for count, samples in samples_by_threads.items()
    }
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
        "samples_by_threads": {
            str(count): [round(seconds, 4) for seconds in samples]
            for count, samples in samples_by_threads.items()
        },
        "spread_by_threads": {
            str(count): round(max(samples) - min(samples), 4)
            for count, samples in samples_by_threads.items()
        },
        "speedup_2_threads": speedup,
        "parity": True,  # asserted above at every thread count
        "reuse": run_reuse(),
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
    """Pytest entry point (CI smoke runs this with REPRO_BENCH_SMOKE=1):
    the scaling and the reuse rows."""
    run()


if __name__ == "__main__":
    run()
