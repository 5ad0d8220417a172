"""End-to-end benchmark of the tangled-logic detection system.

Run from the root of a checkout::

    python3 perfbench/run.py --workload detect-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` replays the
workload under ``repro.obs`` tracing and reports the per-layer split.
Human-readable lines go to stdout first (a ``stamp`` line with host shape
and inputs, then check problems and, when traced, the layer table); the
last stdout line is one JSON object::

    {"correct": true, "attempted": 88, "failed": 0, "metrics": {...}}

The program is imported from ``src/`` of the checkout; without it the
benchmark exits 2 and prints no result.  See ``perfbench/README.md``.

The measuring runs in a child process in a process group of its own; this
process supervises it and returns only when every process the run started
(daemons, pool workers, spawn helpers such as multiprocessing's resource
tracker) has ended.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The measuring child is killed after this long (a run must end within 180 s).
RUN_TIMEOUT_S = 170.0
#: How long processes may outlive the measuring child before they are killed.
REAP_TIMEOUT_S = 5.0
#: ``prctl`` option that makes orphaned descendants children of this process.
PR_SET_CHILD_SUBREAPER = 36

#: Names and units of the end-to-end metrics, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("detect-cold", "eco-edit", "sweep-grid"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny: a few-second configuration for smoke tests",
    )
    parser.add_argument(
        "--measure", action="store_true",
        help="measure in this process instead of a supervised child",
    )
    return parser.parse_args(argv)


def _has_sources() -> bool:
    return os.path.isdir(os.path.join(ROOT, "src", "repro"))


def _group_alive(pgid: int) -> list:
    """Pids of live (non-zombie) processes in process group ``pgid``."""
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            alive.append(int(entry))
    return alive


def _reap() -> None:
    """Collect every exited child, adopted orphans included."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def supervise(argv) -> int:
    """Run the measuring child; return once its whole process group is gone."""
    if not _has_sources():
        print(f"perfbench: no program sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        # Orphans of the run become our children, so they can be reaped.
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # without it, orphans are reaped by init; the wait below holds
    # A terminated supervisor still takes the measuring group down with it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), *argv, "--measure"],
        process_group=0,
    )
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except BaseException:
        _kill_group(child.pid)
        child.wait()
        code = 1
    deadline = time.monotonic() + REAP_TIMEOUT_S
    while True:
        _reap()
        if not _group_alive(child.pid):
            break
        if time.monotonic() > deadline:
            _kill_group(child.pid)
        time.sleep(0.01)
    # A killed child leaves its harness.WorkDir behind.
    work_root = os.path.join(ROOT, ".perfbench-work")
    for leftover in glob.glob(os.path.join(work_root, f"{child.pid}-*")):
        shutil.rmtree(leftover, ignore_errors=True)
    try:
        os.rmdir(work_root)
    except OSError:
        pass  # absent, or another run's directory is still there
    return code


def main(argv=None, tamper=None) -> dict:
    """Run one benchmark and return its result object (also printed)."""
    args = parse_args(argv)
    if not _has_sources():
        print(f"perfbench: no program sources under {ROOT}/src", file=sys.stderr)
        raise SystemExit(2)
    os.chdir(ROOT)
    if os.path.join(ROOT, "src") not in sys.path:
        sys.path.insert(0, os.path.join(ROOT, "src"))

    import numpy

    import inputs
    import layers
    from harness import WorkDir
    from workloads import WORKLOADS, Context

    ctx = Context(
        root=ROOT,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        scale=inputs.SCALES[args.scale],
        traced=bool(args.trace),
        tamper=tamper,
    )
    work = WorkDir(ROOT, args.workload)
    try:
        outcome = WORKLOADS[args.workload](ctx, work)
    finally:
        work.close()

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "designs": [
            {"cells": d.num_cells, "nets": d.num_nets} for d in outcome.designs
        ],
    }
    print("stamp " + json.dumps(stamp, sort_keys=True))
    for problem in outcome.tally.problems:
        print(f"check failed: {problem}")
    for line in ctx.lines:
        print(line)
    table = layers.LAYER_METRICS if args.trace else END_TO_END
    result = {
        "correct": outcome.tally.failed == 0 and outcome.tally.attempted > 0,
        "attempted": outcome.tally.attempted,
        "failed": outcome.tally.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in table
        },
    }
    print(json.dumps(result), flush=True)
    return result


if __name__ == "__main__":
    if "--measure" in sys.argv[1:]:
        main()
    else:
        sys.exit(supervise(sys.argv[1:]))
