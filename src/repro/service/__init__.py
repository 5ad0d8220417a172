"""Batched, cache-aware detection service layer.

Turns the one-shot in-process finder into a batch service:

* :mod:`repro.service.fingerprint` — stable content hashes of
  ``(Netlist, FinderConfig)`` pairs, the cache key of everything below.
* :mod:`repro.service.codec` — lossless JSON codecs for finder reports.
* :mod:`repro.service.store` — persistent SQLite result store with
  hit/miss accounting; one per cache dir, shared by every process that
  runs over it (CLI runs, the daemon).
* :mod:`repro.service.designs` — the cache dir's design packs, one per
  fingerprint, and the rows mapping pre-packed source files to them.
* :mod:`repro.service.pool` — a reusable in-process thread pool that runs
  the seed trials of many detections over shared netlists.
* :mod:`repro.service.jobs` — ``DetectionJob``/``JobResult`` records and
  the cache-consulting ``BatchRunner``.
* :mod:`repro.service.sweep` — sweep planning: listed points (or a
  parameter grid expanded into them) with fingerprint-level job
  deduplication; :func:`run_points` executes the plan through a
  ``BatchRunner`` (seed threads in this process) or a
  :class:`~repro.server.client.DaemonRunner` (priority-class-``sweep``
  submits to a running daemon).
* :mod:`repro.service.manifest` — the one job-manifest reader (listed
  jobs or a grid), and the design paths any manifest names.
* :mod:`repro.service.aggregate` — sweep aggregation/publishing: canonical
  per-point rows, per-axis summaries, the sweep's wall clock.

The CLI's ``sweep`` subcommand (alias ``batch``) is a thin wrapper over
this package, and :meth:`repro.finder.TangledLogicFinder.run` delegates its
parallel path to the same :class:`WorkerPool`, so single runs and batch
runs share one execution engine.
"""

from repro.service.fingerprint import (
    fingerprint_config,
    fingerprint_netlist,
    job_fingerprint,
)
from repro.service.codec import (
    config_from_dict,
    config_to_dict,
    report_from_dict,
    report_to_dict,
)
from repro.service.store import CacheStats, MergeStats, ResultStore
from repro.service.pool import PoolStats, WorkerPool
from repro.service.jobs import (
    BatchProgress,
    BatchRunner,
    DetectionJob,
    JobResult,
    summarize_results,
)
from repro.service.sweep import (
    SweepOutcome,
    SweepPlan,
    SweepPoint,
    expand_grid,
    plan_sweep,
    run_sweep,
)
from repro.service.aggregate import (
    SweepAggregate,
    aggregate_sweep,
    point_rows,
    write_aggregate,
)

__all__ = [
    "fingerprint_netlist",
    "fingerprint_config",
    "job_fingerprint",
    "config_to_dict",
    "config_from_dict",
    "report_to_dict",
    "report_from_dict",
    "ResultStore",
    "CacheStats",
    "MergeStats",
    "WorkerPool",
    "PoolStats",
    "DetectionJob",
    "JobResult",
    "BatchRunner",
    "BatchProgress",
    "summarize_results",
    "SweepPlan",
    "SweepPoint",
    "SweepOutcome",
    "expand_grid",
    "plan_sweep",
    "run_sweep",
    "SweepAggregate",
    "aggregate_sweep",
    "point_rows",
    "write_aggregate",
]
