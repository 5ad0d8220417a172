"""Batch detection jobs: job/result records and the batch runner.

A :class:`DetectionJob` names one ``(netlist, config)`` detection;
:class:`BatchRunner` executes many of them through one shared
:class:`~repro.service.pool.WorkerPool`, consulting a
:class:`~repro.service.store.ResultStore` first so previously computed
(identical-content) jobs are answered from cache.  Worker crashes are
retried inside the pool (``WorkerPool.max_retries``); a job that still
fails is recorded once, with its error.

Caching is only sound for deterministic runs: a job whose config has
``seed=None`` is executed unconditionally and never stored.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import ReproError, ServiceError
from repro.finder.config import FinderConfig
from repro.finder.finder import TangledLogicFinder
from repro.finder.result import FinderReport
from repro.netlist.hypergraph import Netlist
from repro.obs import trace
from repro.service.fingerprint import job_fingerprint
from repro.service.pool import WorkerPool
from repro.service.store import ResultStore
from repro.utils.timer import Timer

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class DetectionJob:
    """One unit of detection work.

    Attributes:
        netlist: the design to scan.
        config: finder configuration (its ``workers`` field is ignored by
            the batch path — the runner's pool decides parallelism).
        label: caller-facing name (e.g. the design file), carried through to
            the result; not part of the fingerprint.
    """

    netlist: Netlist
    config: FinderConfig = field(default_factory=FinderConfig)
    label: str = ""

    @cached_property
    def fingerprint(self) -> str:
        """Content fingerprint of this job (cached after first computation)."""
        return job_fingerprint(self.netlist, self.config)

    @classmethod
    def with_netlist_fingerprint(
        cls,
        netlist: Netlist,
        config: FinderConfig,
        label: str,
        netlist_fingerprint: str,
    ) -> "DetectionJob":
        """Build a job whose fingerprint reuses a precomputed netlist hash.

        Callers creating many jobs over the same design (batch manifests,
        sweep grids) hash the netlist once and prime each job's cached
        fingerprint with it instead of re-hashing per job.
        """
        job = cls(netlist=netlist, config=config, label=label)
        job.__dict__["fingerprint"] = job_fingerprint(
            netlist, config, netlist_fingerprint=netlist_fingerprint
        )
        return job

    @property
    def deterministic(self) -> bool:
        """True when the job's config pins the RNG seed (cacheable)."""
        return self.config.seed is not None


@dataclass
class JobResult:
    """Outcome of one :class:`DetectionJob`.

    Attributes:
        job: the job this result answers.
        report: the finder report, or ``None`` when the job failed.
        cached: True when the report came from the result store.
        runtime_seconds: wall-clock spent answering this job (lookup or run).
        attempts: execution attempts made (0 for a cache hit, else 1).
        error: stringified terminal error when ``report`` is ``None``.
    """

    job: DetectionJob
    report: Optional[FinderReport]
    cached: bool
    runtime_seconds: float
    attempts: int = 1
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when the job produced a report."""
        return self.report is not None


@dataclass(frozen=True)
class BatchProgress:
    """One progress event, handed to the runner's callback.

    Attributes:
        done: jobs finished so far (including this one).
        total: jobs in the batch.
        result: the finished job's result.
    """

    done: int
    total: int
    result: JobResult


ProgressCallback = Callable[[BatchProgress], None]


class BatchRunner:
    """Execute many detection jobs with shared workers and a shared cache.

    Args:
        workers: parallel seed trials per job (one pool shared by all jobs).
        store: result store for cache lookup/insert (``None`` = no caching).
        use_cache: master switch; ``False`` bypasses the store entirely —
            no lookups and no inserts (the ``--no-cache`` path).
        progress: callback invoked after every finished job.
        pool: inject a pre-built :class:`WorkerPool` (owned by the caller);
            otherwise the runner creates and owns one.
    """

    def __init__(
        self,
        workers: int = 1,
        store: Optional[ResultStore] = None,
        use_cache: bool = True,
        progress: Optional[ProgressCallback] = None,
        pool: Optional[WorkerPool] = None,
    ) -> None:
        self.store = store
        self.use_cache = use_cache
        self.progress = progress
        self._pool = pool or WorkerPool(workers)
        self._owns_pool = pool is None

    @property
    def pool(self) -> WorkerPool:
        """The worker pool executing seed trials."""
        return self._pool

    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[DetectionJob]) -> List[JobResult]:
        """Execute ``jobs`` in order and return one result per job."""
        results: List[JobResult] = []
        total = len(jobs)
        for job in jobs:
            result = self.run_one(job)
            results.append(result)
            if self.progress is not None:
                self.progress(BatchProgress(done=len(results), total=total, result=result))
        return results

    def run_one(self, job: DetectionJob) -> JobResult:
        """Execute a single job (cache lookup, run, cache insert)."""
        cacheable = self.use_cache and self.store is not None and job.deterministic
        cached_report = None
        job_span = trace.span(
            "service.job", label=job.label or job.fingerprint[:12]
        )
        with job_span, Timer() as timer:
            if cacheable:
                try:
                    cached_report = self.store.get(job.fingerprint)
                except ServiceError as store_error:
                    # A flaky cache (lock contention, bad disk) degrades to
                    # recomputation, never to an aborted batch.
                    logger.warning(
                        "cache lookup for %s failed, recomputing: %s",
                        job.label or job.fingerprint[:12],
                        store_error,
                    )
            if cached_report is None:
                report, error = self._execute(job)
                if report is not None and cacheable:
                    try:
                        self.store.put(job.fingerprint, report)
                    except ServiceError as store_error:
                        # The expensive work is done; a broken cache (full
                        # disk, lock contention) must not discard it.
                        logger.warning(
                            "result for %s computed but not cached: %s",
                            job.label or job.fingerprint[:12],
                            store_error,
                        )
            job_span.set(cache="hit" if cached_report is not None else "run")
        # Timer.elapsed is only assigned on block exit, so every JobResult is
        # built out here.
        if cached_report is not None:
            # The fingerprint ignores execution-only fields (workers), so a
            # hit may have been computed under a different worker count:
            # report the *requesting* job's config, not the producer's.
            if cached_report.config != job.config:
                cached_report = dataclasses.replace(cached_report, config=job.config)
            return JobResult(
                job=job,
                report=cached_report,
                cached=True,
                runtime_seconds=timer.elapsed,
                attempts=0,
            )
        return JobResult(
            job=job,
            report=report,
            cached=False,
            runtime_seconds=timer.elapsed,
            error=error,
        )

    def _execute(
        self, job: DetectionJob
    ) -> Tuple[Optional[FinderReport], Optional[str]]:
        """Run a job through the shared pool once: ``(report, error)``.

        The pool already replays batches lost to worker crashes, so an
        error reaching this point is deterministic and retrying it would
        only run a broken job twice.
        """
        try:
            finder = TangledLogicFinder(job.netlist, job.config)
            return finder.run(pool=self._pool), None
        except ReproError as error:
            return None, str(error)
        except Exception as error:  # a kernel bug: fail this job, not the batch
            return None, f"{type(error).__name__}: {error}"

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the pool if this runner created it."""
        if self._owns_pool:
            self._pool.shutdown()

    def __enter__(self) -> "BatchRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def summarize_results(results: Sequence[JobResult]) -> str:
    """One-line batch summary (jobs, hits, failures, total runtime)."""
    hits = sum(1 for r in results if r.cached)
    failed = sum(1 for r in results if not r.ok)
    runtime = sum(r.runtime_seconds for r in results)
    return (
        f"{len(results)} job(s): {hits} cache hit(s), "
        f"{len(results) - hits - failed} computed, {failed} failed, "
        f"{runtime:.2f}s total"
    )
