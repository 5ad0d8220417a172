"""Smoke test of the benchmark at tiny scale.

    python3 -m pytest perfbench/check_smoke.py -q

Every workload runs in both modes at ``--scale tiny``: the result line
must carry exactly the metrics ``BENCHMARK.json`` names, each with its
unit, and every op must pass its check.  A report corrupted before its
check must count as one failed op.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCH = json.load(_handle)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _args(workload: str, trace: int):
    return [
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--scale", "tiny",
    ]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py")] + _args(workload, trace),
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
    table = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in table
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
        assert trace or metric["value"] > 0


def _corrupt_first(workload, index, answer):
    """Shift one number in the first op's report."""
    if index != 0 or answer is None:
        return answer
    answer = copy.deepcopy(answer)
    report = answer.get("report", answer)
    report["num_orderings"] += 1
    return answer


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_corrupted_report_is_a_failed_op(workload):
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    import run

    cwd = os.getcwd()
    try:
        result = run.main(_args(workload, 0), tamper=_corrupt_first)
    finally:
        os.chdir(cwd)
    assert result["failed"] == 1
    assert result["correct"] is False
    assert result["attempted"] > 1
