"""Sweep aggregation and publishing (the results-publisher layer).

Modelled on opensearch-benchmark's ``aggregator.py`` +
``results_publisher.py`` split: :func:`~repro.service.sweep.run_sweep`
produces a :class:`~repro.service.sweep.SweepOutcome` in plan point
order, and this module turns it into publishable artifacts —

* :func:`point_rows` — the canonical per-point JSONL rows.  Every runner
  (local seed threads at any count, daemon submits) goes through this one
  builder, which is what makes "2 seed threads are bit-identical to 1"
  and "daemon rows equal local rows" diffable properties.
* :func:`aggregate_sweep` — roll the outcome up into a
  :class:`SweepAggregate`: totals, cache effectiveness (counted from the
  job results, whichever process ran them), the sweep's wall clock and
  per-axis response summaries (how did ``lambda_skip=20`` do across
  every design and other-axis value?).
* :func:`write_aggregate` — publish the aggregate as one JSON document.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.service.codec import report_to_dict
from repro.service.sweep import SweepOutcome

#: Version stamp of the published aggregate document (3: no ``shards``
#: or ``mode``; ``wall_seconds`` is the sweep's own wall clock).
AGGREGATE_SCHEMA = 3


def point_rows(outcome: SweepOutcome) -> List[Dict[str, Any]]:
    """Per-grid-point JSONL rows of ``outcome``, in plan point order."""
    rows: List[Dict[str, Any]] = []
    for point, result in outcome.point_results():
        rows.append(
            {
                "design": point.design,
                "overrides": point.overrides_dict(),
                "fingerprint": result.job.fingerprint,
                "cached": result.cached,
                "runtime_seconds": result.runtime_seconds,
                "error": result.error,
                "seeds_recomputed": result.incremental.get("seeds_recomputed", 0),
                "report": report_to_dict(result.report) if result.report else None,
            }
        )
    return rows


@dataclass
class AxisValueSummary:
    """Response of the sweep at one value of one axis (marginalized over
    every design and every other axis)."""

    points: int = 0
    ok: int = 0
    failed: int = 0
    cache_hits: int = 0
    _runtime: float = field(default=0.0, repr=False)
    _num_gtls: int = field(default=0, repr=False)
    _best_score: float = field(default=0.0, repr=False)
    _scored: int = field(default=0, repr=False)

    def add(self, result) -> None:
        self.points += 1
        if result.ok:
            self.ok += 1
            self._runtime += result.runtime_seconds
            self._num_gtls += result.report.num_gtls
            if result.report.gtls:
                self._best_score += result.report.gtls[0].score
                self._scored += 1
        else:
            self.failed += 1
        if result.cached:
            self.cache_hits += 1

    def to_dict(self) -> Dict[str, Any]:
        return {
            "points": self.points,
            "ok": self.ok,
            "failed": self.failed,
            "cache_hits": self.cache_hits,
            "mean_runtime_s": self._runtime / self.ok if self.ok else 0.0,
            "mean_num_gtls": self._num_gtls / self.ok if self.ok else 0.0,
            "mean_best_score": (
                self._best_score / self._scored if self._scored else 0.0
            ),
        }


@dataclass
class SweepAggregate:
    """Rolled-up statistics of one executed sweep."""

    points: int
    jobs: int
    deduplicated: int
    failed_points: int
    cache_hits: int
    cache_misses: int
    wall_seconds: float
    per_axis: Dict[str, Dict[str, Dict[str, Any]]]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": AGGREGATE_SCHEMA,
            "points": self.points,
            "jobs": self.jobs,
            "deduplicated": self.deduplicated,
            "failed_points": self.failed_points,
            "cache": {"hits": self.cache_hits, "misses": self.cache_misses},
            "wall_seconds": self.wall_seconds,
            "per_axis": self.per_axis,
        }

    def summary(self) -> str:
        """One-line human-readable form."""
        return (
            f"{self.points} point(s), {self.jobs} job(s) "
            f"({self.deduplicated} deduplicated), "
            f"{self.failed_points} failed, "
            f"{self.cache_hits} cache hit(s), {self.wall_seconds:.2f}s wall"
        )


def aggregate_sweep(outcome: SweepOutcome) -> SweepAggregate:
    """Aggregate ``outcome`` into publishable stats."""
    per_axis: Dict[str, Dict[str, AxisValueSummary]] = {}
    failed_points = 0
    for point, result in outcome.point_results():
        if not result.ok:
            failed_points += 1
        for axis, value in point.overrides:
            summary = per_axis.setdefault(axis, {}).setdefault(
                str(value), AxisValueSummary()
            )
            summary.add(result)

    cache_hits = sum(1 for r in outcome.job_results if r.cached)
    return SweepAggregate(
        points=len(outcome.plan.points),
        jobs=len(outcome.plan.jobs),
        deduplicated=outcome.plan.num_deduplicated,
        failed_points=failed_points,
        cache_hits=cache_hits,
        cache_misses=len(outcome.job_results) - cache_hits,
        wall_seconds=outcome.wall_seconds,
        per_axis={
            axis: {
                value: summary.to_dict()
                for value, summary in sorted(values.items())
            }
            for axis, values in sorted(per_axis.items())
        },
    )


def write_aggregate(path: str, aggregate: SweepAggregate) -> None:
    """Publish ``aggregate`` as a JSON document at ``path``."""
    with open(path, "w") as handle:
        json.dump(aggregate.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


__all__ = [
    "AGGREGATE_SCHEMA",
    "AxisValueSummary",
    "SweepAggregate",
    "aggregate_sweep",
    "point_rows",
    "write_aggregate",
]
