"""Batch detection jobs: job/result records and the batch runner.

A :class:`DetectionJob` names one ``(netlist, config)`` detection;
:class:`BatchRunner` executes many of them through one shared
:class:`~repro.service.pool.WorkerPool`.  Each job is the one-stage flow
``Flow([DetectStage(config)])``, so the flow's stage loop looks the report
up in the :class:`~repro.service.store.ResultStore`, computes a miss and
records it — the same row a ``repro flow run``, ``repro detect`` or daemon
submit of that ``(design, config)`` reads.  A miss patches a traced run of
an earlier job on the same cell names and pin total under the same config
when that is sound (an edited design after its base), as every detection
entry point does.  A job whose seed raises fails once, with its error,
and the batch goes on.

Caching is only sound for deterministic runs: a job whose config has
``seed=None`` is executed unconditionally and never stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.finder.config import FinderConfig
from repro.finder.result import FinderReport
from repro.netlist.hypergraph import Netlist
from repro.obs import trace
from repro.service.fingerprint import job_fingerprint
from repro.service.pool import WorkerPool
from repro.service.store import ResultStore
from repro.utils.timer import Timer


@dataclass(frozen=True)
class DetectionJob:
    """One unit of detection work.

    Attributes:
        netlist: the design to scan.
        config: finder configuration (the runner's pool decides
            parallelism).
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
        runtime_seconds: wall-clock spent answering this job (lookup, run
            and cache insert).
        attempts: execution attempts made (0 for a cache hit, else 1).
        error: stringified terminal error when ``report`` is ``None``.
        incremental: the reuse decision, keyed as
            :meth:`~repro.incremental.engine.IncrementalResult.provenance`:
            ``mode`` is ``"cached"``, or how the report was computed
            (``"incremental"``, patched from a traced base run, or
            ``"full"``), with ``seeds_total`` planned and
            ``seeds_recomputed`` run (absent or 0 for a hit); empty when
            the job failed.
    """

    job: DetectionJob
    report: Optional[FinderReport]
    cached: bool
    runtime_seconds: float
    attempts: int = 1
    error: Optional[str] = None
    incremental: Dict[str, Any] = field(default_factory=dict)

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
        workers: seed threads per job (one pool shared by all jobs).
        store: result store for cache lookup/insert (``None`` = no caching,
            the ``--no-cache`` path).
        progress: callback invoked after every finished job.
        pool: inject a pre-built :class:`WorkerPool` (owned by the caller);
            otherwise the runner creates and owns one.
    """

    def __init__(
        self,
        workers: int = 1,
        store: Optional[ResultStore] = None,
        progress: Optional[ProgressCallback] = None,
        pool: Optional[WorkerPool] = None,
    ) -> None:
        self.store = store
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
        """Execute a single job (cache lookup, run, cache insert).

        Detection is deterministic, so an error is never retried: the job
        fails once, with its error, and the batch goes on.
        """
        from repro.flow.flow import Flow
        from repro.flow.stages import DetectStage
        from repro.incremental.engine import IncrementalResult

        flow = Flow([DetectStage(job.config)], name="detect")
        job_span = trace.span(
            "service.job", label=job.label or job.fingerprint[:12]
        )
        result = error = None
        with job_span, Timer() as timer:
            try:
                (result,) = flow.run(
                    job.netlist, store=self.store, pool=self._pool,
                ).results
            except ReproError as failure:
                error = str(failure)
            except Exception as failure:  # a kernel bug: fail this job, not the batch
                error = f"{type(failure).__name__}: {failure}"
            cached = result is not None and result.cached
            job_span.set(cache="hit" if cached else "run")
        # Timer.elapsed (lookup, run and put) is only assigned on block exit.
        return JobResult(
            job=job,
            report=result.artifact if result is not None else None,
            cached=cached,
            runtime_seconds=timer.elapsed,
            attempts=0 if cached else 1,
            error=error,
            incremental=(
                {} if result is None
                else IncrementalResult.from_stage_result(result).provenance()
            ),
        )

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
