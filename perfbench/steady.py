"""Steadiness check: run each workload repeatedly and compare spreads.

    python3 perfbench/steady.py --runs 10 [--workload detect-cold ...]

Runs ``perfbench/run.py`` once per seed (seeds ``--first-seed`` onwards)
for every selected workload, untraced, with the ``run_seconds`` of
``BENCHMARK.json``.  For each end-to-end metric it prints the median, the
first and third quartile (``statistics.quantiles(n=4)``), the spread
``(q3 - q1) / median`` and that spread against the metric's bound and a
third of it.  ``setup_s`` is listed but, like the acceptance rule, not
held to its bound.  Exits 1 when a run fails or is incorrect, or a spread
reaches a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    began = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable, os.path.join("perfbench", "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    wall = time.perf_counter() - began
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description="benchmark steadiness check")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument(
        "--workload", action="append",
        help="workload to check (repeatable; default: all)",
    )
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for workload in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, bench["run_seconds"])
            runs.append(result)
            print(
                f"{workload} seed {seed}: {result['wall_s']:.1f}s wall, "
                f"correct={result['correct']} "
                f"failed={result['failed']}/{result['attempted']}",
                flush=True,
            )
            steady &= result["correct"]
        print(f"\n{workload}: {len(runs)} runs")
        print(f"{'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s} {'bound/3':>8s}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            mid = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / mid if mid else float("inf")
            held = name == "setup_s" or spread < bound / 3
            steady &= held
            print(
                f"{name:16s} {mid:12.4f} {q1:12.4f} {q3:12.4f} "
                f"{spread:8.2%} {bound:6.2f} {bound / 3:8.3f}"
                + ("" if held else "  <- too noisy")
            )
        print()
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
