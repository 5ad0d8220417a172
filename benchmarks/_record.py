"""Shared helper for machine-readable benchmark records.

Benchmarks that feed the repo's performance trajectory write one
``BENCH_<name>.json`` file at the repository root via :func:`record`, so
successive PRs can diff structured numbers instead of scraping log lines
(in the spirit of recorded workload results in benchmark harnesses like
opensearch-benchmark).

Schema::

    {
      "benchmark": "<name>",
      "schema_version": 2,
      "created_unix": <float, seconds>,
      "python": "3.11.7",
      "cpu_count": 2,
      "numpy": "2.4.6",
      "smoke": false,
      "results": {...benchmark-specific payload...},
      "run_report": {...optional repro.obs.RunReport.to_dict()...}
    }

Schema version 2 adds the optional ``run_report`` key: benchmarks that
run under tracing embed the per-phase span breakdown and kernel counters
(see :mod:`repro.obs.report`) so the perf trajectory records *where* the
time went, not just totals.  Every record also notes the host shape
(``cpu_count``, the ``numpy`` version) so parallel numbers and kernel
timings can be read against the machine that produced them.

Benchmarks may declare a *headline* metric (a key into ``results``); when
a new record replaces an old one, :func:`record` compares the two and
logs a warning through the ``repro.obs`` logging channel if the headline
regressed by more than :data:`REGRESSION_TOLERANCE` — the perf trajectory
flags its own regressions instead of waiting for a human to diff JSON.
"""

from __future__ import annotations

import json
import logging
import os
import platform
import time
from pathlib import Path
from typing import Mapping, Optional

import numpy

#: Repository root (benchmarks/ lives directly under it).
REPO_ROOT = Path(__file__).resolve().parent.parent

SCHEMA_VERSION = 2

#: Relative headline-metric drop (higher-is-better) tolerated silently.
REGRESSION_TOLERANCE = 0.10

logger = logging.getLogger("repro.obs.bench")


def _check_regression(
    out: Path, name: str, results: Mapping, headline: str,
    higher_is_better: bool,
) -> None:
    """Compare the new headline metric against the record being replaced."""
    try:
        previous = json.loads(out.read_text())
    except (OSError, ValueError):
        return
    if previous.get("smoke", False):
        return  # smoke numbers are not a baseline
    old = previous.get("results", {}).get(headline)
    new = results.get(headline)
    if not isinstance(old, (int, float)) or not isinstance(new, (int, float)):
        return
    if old <= 0:
        return
    change = (new - old) / old
    regressed = change < -REGRESSION_TOLERANCE if higher_is_better \
        else change > REGRESSION_TOLERANCE
    if regressed:
        logger.warning(
            "benchmark %s: headline %r regressed %.1f%% vs previous record "
            "(%.4g -> %.4g)",
            name, headline, abs(change) * 100, old, new,
        )
        from repro.obs import trace

        if trace.enabled():
            trace.counter("bench.regressions").add(1)
    else:
        logger.info(
            "benchmark %s: headline %r %+.1f%% vs previous record",
            name, headline, change * 100,
        )


def record(
    name: str,
    results: Mapping,
    smoke: bool = False,
    path: Optional[Path] = None,
    run_report: Optional[Mapping] = None,
    headline: str = "",
    higher_is_better: bool = True,
) -> Path:
    """Write ``BENCH_<name>.json`` at the repo root and return its path.

    Args:
        name: benchmark identifier (file name suffix).
        results: JSON-safe benchmark payload.
        smoke: True when the run was a reduced CI smoke.  A smoke run never
            overwrites an existing full-scale record — the trajectory keeps
            real numbers even when smoke suites run afterwards.
        path: override the output path (tests).
        run_report: optional ``repro.obs.RunReport.to_dict()`` payload from
            a traced run — embeds the per-phase time breakdown and kernel
            counters alongside the headline numbers.
        headline: key into ``results`` naming the headline metric; when the
            write replaces a previous full-scale record, a >10% regression
            is logged as a warning on the ``repro.obs`` channel.
        higher_is_better: direction of the headline metric (speedups and
            throughputs are, latencies are not).
    """
    out = path or (REPO_ROOT / f"BENCH_{name}.json")
    if smoke and out.exists():
        try:
            if not json.loads(out.read_text()).get("smoke", True):
                return out
        except (OSError, ValueError):
            pass  # unreadable record: overwrite it
    if headline and out.exists() and not smoke:
        _check_regression(out, name, results, headline, higher_is_better)
    payload = {
        "benchmark": name,
        "schema_version": SCHEMA_VERSION,
        "created_unix": time.time(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "numpy": numpy.__version__,
        "smoke": smoke,
        "results": dict(results),
    }
    if run_report is not None:
        payload["run_report"] = dict(run_report)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return out
