"""Sharded sweep execution: dispatch, retry accounting, result splicing.

The :class:`SweepCoordinator` is the layer between the planner and the
store (modelled on opensearch-benchmark's ``worker_coordinator``): it
partitions a deduplicated :class:`~repro.service.sweep.SweepPlan` into
:class:`~repro.service.shard.SweepShard`\\ s and dispatches them either

* **locally** — one worker process per shard (waves of a
  ``ProcessPoolExecutor``), each running its jobs through its own
  :class:`~repro.service.jobs.BatchRunner` against the cache dir's one
  :class:`~repro.service.store.ResultStore`.  The store is WAL-mode SQLite
  with a busy timeout, so N shard processes (and a daemon, and other CLI
  runs) read and write the same ``results.sqlite`` concurrently; jobs the
  cache already answers are hits, and every computed row is in the main
  store the moment its shard records it; or
* **via a daemon** — every job of every shard submitted to a running
  :class:`~repro.server.daemon.ServerDaemon` as a priority-class-``sweep``
  job (one submitting thread per shard, lifecycle events streamed back as
  per-shard progress), grouped so ``repro status`` can show the sweep's
  shards while they queue.

Failure model: a shard that dies (worker crash, broken pool) is retried
whole — every job it already finished replays from the store as a cache
hit.  A shard that exhausts its attempts fails *loudly but locally*: its
points report the shard error while every other shard's results stand,
and the outcome records the failure for the aggregator.
"""

from __future__ import annotations

import concurrent.futures
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ServiceError
from repro.finder.config import FinderConfig
from repro.finder.result import FinderReport
from repro.netlist.hypergraph import Netlist
from repro.obs import trace
from repro.service.jobs import BatchRunner, JobResult
from repro.service.shard import SweepShard, partition_plan
from repro.service.store import ResultStore
from repro.service.sweep import SweepOutcome, plan_sweep
from repro.utils.timer import Timer

@dataclass
class ShardStats:
    """Execution accounting of one shard (one row of the aggregate).

    Attributes:
        shard_id: which shard.
        num_jobs: jobs the shard owned.
        attempts: dispatch attempts (1 = clean first run).
        ok: True when the shard returned results.
        error: terminal dispatch error when ``ok`` is False.
        wall_seconds: wall-clock of the successful attempt (0.0 if none).
        cache_hits / cache_misses / cache_puts: the shard's store counters.
    """

    shard_id: int
    num_jobs: int
    attempts: int = 0
    ok: bool = False
    error: Optional[str] = None
    wall_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_puts: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "shard_id": self.shard_id,
            "num_jobs": self.num_jobs,
            "attempts": self.attempts,
            "ok": self.ok,
            "error": self.error,
            "wall_seconds": self.wall_seconds,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_puts": self.cache_puts,
        }


@dataclass(frozen=True)
class ShardProgress:
    """One coordinator progress event.

    ``kind`` is ``"shard-start"``, ``"job"`` (daemon dispatch only — local
    shards are opaque subprocesses) or ``"shard-done"``.
    """

    kind: str
    shard_id: int
    num_jobs: int
    done_shards: int
    total_shards: int
    label: str = ""
    error: Optional[str] = None


ShardProgressCallback = Callable[[ShardProgress], None]


@dataclass
class ShardedSweepOutcome(SweepOutcome):
    """A :class:`SweepOutcome` plus per-shard accounting.

    ``job_results`` is in plan order — point results are spliced back to
    exactly the order an unsharded :func:`~repro.service.sweep.run_sweep`
    would produce.
    """

    shard_stats: List[ShardStats] = field(default_factory=list)
    wall_seconds: float = 0.0
    mode: str = "local"

    @property
    def failed_shards(self) -> List[ShardStats]:
        return [stats for stats in self.shard_stats if not stats.ok]


@dataclass
class _ShardJobOutcome:
    """Slim, netlist-free job result shipped back from a shard process."""

    job_index: int
    report: Optional[FinderReport]
    cached: bool
    runtime_seconds: float
    attempts: int
    error: Optional[str]


def _execute_shard(
    shard: SweepShard,
    cache_dir: Optional[str],
    use_cache: bool,
    workers: int,
) -> Dict[str, object]:
    """Run one shard's jobs in this process (the shard-worker entry point).

    Opens the cache dir's store, runs the jobs through a
    :class:`BatchRunner`, and returns a picklable payload: slim outcomes
    (the heavyweight job netlists stay behind) plus store counters.
    """
    store: Optional[ResultStore] = None
    if use_cache and cache_dir:
        store = ResultStore(cache_dir)
    try:
        with Timer() as timer, BatchRunner(
            workers=workers, store=store, use_cache=use_cache
        ) as runner:
            results = runner.run(shard.jobs)
        outcomes = [
            _ShardJobOutcome(
                job_index=shard.job_indices[local],
                report=result.report,
                cached=result.cached,
                runtime_seconds=result.runtime_seconds,
                attempts=result.attempts,
                error=result.error,
            )
            for local, result in enumerate(results)
        ]
        stats = store.stats if store is not None else None
        return {
            "shard_id": shard.shard_id,
            "outcomes": outcomes,
            "wall_seconds": timer.elapsed,
            "cache_hits": stats.hits if stats else 0,
            "cache_misses": stats.misses if stats else 0,
            "cache_puts": stats.puts if stats else 0,
        }
    finally:
        if store is not None:
            store.close()


class SweepCoordinator:
    """Plan, shard, dispatch and reassemble one sweep.

    Args:
        num_shards: shards to split the plan into (>= 1).
        cache_dir: sweep cache directory; every shard process opens its
            one store.  ``None`` disables persistence.
        use_cache: master cache switch (the ``--no-cache`` path).
        workers: seed threads *inside* each shard (usually 1 —
            sharding is the parallelism axis).  Every shard of a wave
            runs concurrently, one process (or daemon submit) each.
        max_shard_attempts: dispatch attempts per shard before its jobs
            are reported failed.
        progress: optional :class:`ShardProgress` callback.
        daemon_socket: when set, dispatch through a running daemon at this
            socket instead of local processes (priority class ``sweep``).
        group: job-group label for daemon dispatch (visible in
            ``repro status``); defaults to ``sweep-<plan-prefix>``.
    """

    def __init__(
        self,
        num_shards: int,
        cache_dir: Optional[str] = None,
        use_cache: bool = True,
        workers: int = 1,
        max_shard_attempts: int = 2,
        progress: Optional[ShardProgressCallback] = None,
        daemon_socket: Optional[str] = None,
        group: str = "",
    ) -> None:
        if num_shards < 1:
            raise ServiceError("SweepCoordinator num_shards must be >= 1")
        if max_shard_attempts < 1:
            raise ServiceError("SweepCoordinator max_shard_attempts must be >= 1")
        self.num_shards = num_shards
        self.cache_dir = cache_dir
        self.use_cache = use_cache
        self.workers = workers
        self.max_shard_attempts = max_shard_attempts
        self.progress = progress
        self.daemon_socket = daemon_socket
        self.group = group
        # Test seam: the picklable callable local dispatch sends to worker
        # processes.  Must stay a module-level function (pickled by name).
        self._shard_runner = _execute_shard

    # ------------------------------------------------------------------
    def run(
        self,
        designs: Sequence[Tuple[str, Netlist]],
        base: FinderConfig,
        grid: Mapping[str, Sequence[object]],
        design_paths: Optional[Mapping[str, str]] = None,
    ) -> ShardedSweepOutcome:
        """Execute ``designs x grid`` sharded; results in plan point order.

        ``design_paths`` (label -> loadable path) is required for daemon
        dispatch — the daemon loads designs itself, the netlists never
        cross the socket.
        """
        with Timer() as total:
            with trace.span("sweep.plan", shards=self.num_shards):
                plan = plan_sweep(designs, base, grid)
                shards = partition_plan(plan, self.num_shards)
            if self.daemon_socket:
                payloads, stats = self._dispatch_daemon(shards, design_paths)
                mode = "daemon"
            else:
                payloads, stats = self._dispatch_local(shards)
                mode = "local"
            job_results = self._assemble(plan, shards, payloads, stats)
        return ShardedSweepOutcome(
            plan=plan,
            job_results=job_results,
            shard_stats=[stats[shard.shard_id] for shard in shards],
            wall_seconds=total.elapsed,
            mode=mode,
        )

    # -- local dispatch -------------------------------------------------
    def _dispatch_local(
        self, shards: Sequence[SweepShard]
    ) -> Tuple[Dict[int, Dict[str, object]], Dict[int, ShardStats]]:
        """Run shards in waves of worker processes, retrying dead shards.

        Each wave gets a fresh executor: a worker crash poisons a
        ``ProcessPoolExecutor`` (every pending future raises
        ``BrokenProcessPool``), so surviving-but-unfinished shards are
        simply retried in the next wave — the store replays their finished
        jobs as hits.
        """
        stats = {
            # An empty shard (more shards than jobs) never runs; it is
            # vacuously ok, not a failure.
            shard.shard_id: ShardStats(
                shard.shard_id, shard.num_jobs, ok=shard.num_jobs == 0
            )
            for shard in shards
        }
        payloads: Dict[int, Dict[str, object]] = {}
        pending = [shard for shard in shards if shard.jobs]
        done_count = 0
        total_active = len(pending)
        while pending:
            wave, pending = pending, []
            for shard in wave:
                stats[shard.shard_id].attempts += 1
                self._emit("shard-start", shard, done_count, total_active)
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=len(wave)
            ) as executor:
                futures = {
                    executor.submit(
                        self._shard_runner,
                        shard,
                        self.cache_dir,
                        self.use_cache,
                        self.workers,
                    ): shard
                    for shard in wave
                }
                failures: List[Tuple[SweepShard, str]] = []
                for future, shard in futures.items():
                    shard_stats = stats[shard.shard_id]
                    try:
                        payload = future.result()
                    except Exception as error:  # crash, pickling, broken pool
                        failures.append(
                            (shard, f"{type(error).__name__}: {error}")
                        )
                        continue
                    payloads[shard.shard_id] = payload
                    shard_stats.ok = True
                    shard_stats.wall_seconds = payload["wall_seconds"]
                    shard_stats.cache_hits = payload["cache_hits"]
                    shard_stats.cache_misses = payload["cache_misses"]
                    shard_stats.cache_puts = payload["cache_puts"]
                    done_count += 1
                    self._observe_shard(shard_stats)
                    self._emit("shard-done", shard, done_count, total_active)
            for shard, error in failures:
                shard_stats = stats[shard.shard_id]
                shard_stats.error = error
                if shard_stats.attempts < self.max_shard_attempts:
                    if trace.enabled():
                        trace.counter("sweep.shard_retries").add(1)
                    pending.append(shard)
                else:
                    done_count += 1
                    self._observe_shard(shard_stats)
                    self._emit(
                        "shard-done", shard, done_count, total_active, error=error
                    )
        return payloads, stats

    # -- daemon dispatch ------------------------------------------------
    def _dispatch_daemon(
        self,
        shards: Sequence[SweepShard],
        design_paths: Optional[Mapping[str, str]],
    ) -> Tuple[Dict[int, Dict[str, object]], Dict[int, ShardStats]]:
        """Submit every shard's jobs to a daemon as priority-``sweep`` work.

        One submitting thread per shard streams its jobs' lifecycles; the
        daemon's queue interleaves shards (FIFO within the ``sweep``
        class) and its store does the caching.
        """
        if design_paths is None:
            raise ServiceError(
                "daemon dispatch needs design_paths (label -> design file)"
            )
        missing = sorted(
            {
                job.label
                for shard in shards
                for job in shard.jobs
                if job.label not in design_paths
            }
        )
        if missing:
            raise ServiceError(
                f"daemon dispatch has no design path for label(s): "
                f"{', '.join(missing)}"
            )
        stats = {
            # An empty shard (more shards than jobs) never runs; it is
            # vacuously ok, not a failure.
            shard.shard_id: ShardStats(
                shard.shard_id, shard.num_jobs, ok=shard.num_jobs == 0
            )
            for shard in shards
        }
        payloads: Dict[int, Dict[str, object]] = {}
        active = [shard for shard in shards if shard.jobs]
        done = {"count": 0}
        lock = threading.Lock()

        def submit_shard(shard: SweepShard) -> Dict[str, object]:
            from repro.server.client import Client
            from repro.service.codec import config_to_dict, report_from_dict

            client = Client(self.daemon_socket, busy_retries=8)
            group = f"{self.group or 'sweep'}/shard-{shard.shard_id}"
            outcomes: List[_ShardJobOutcome] = []
            hits = 0
            with Timer() as timer:
                for local, job in enumerate(shard.jobs):
                    self._emit(
                        "job", shard, done["count"], len(active), label=job.label
                    )
                    try:
                        result = client.submit(
                            design_paths[job.label],
                            config=config_to_dict(job.config),
                            priority="sweep",
                            label=job.label,
                            group=group,
                        )
                        report = report_from_dict(result["report"])
                        cached = bool(result.get("cached"))
                        hits += 1 if cached else 0
                        outcomes.append(
                            _ShardJobOutcome(
                                job_index=shard.job_indices[local],
                                report=report,
                                cached=cached,
                                runtime_seconds=float(
                                    result.get("runtime_seconds", 0.0)
                                ),
                                attempts=int(result.get("attempts", 1)),
                                error=None,
                            )
                        )
                    except Exception as error:
                        outcomes.append(
                            _ShardJobOutcome(
                                job_index=shard.job_indices[local],
                                report=None,
                                cached=False,
                                runtime_seconds=0.0,
                                attempts=1,
                                error=f"{type(error).__name__}: {error}",
                            )
                        )
            return {
                "shard_id": shard.shard_id,
                "outcomes": outcomes,
                "wall_seconds": timer.elapsed,
                "cache_hits": hits,
                "cache_misses": len(shard.jobs) - hits,
                "cache_puts": 0,
            }

        with concurrent.futures.ThreadPoolExecutor(
            max_workers=max(1, len(active))
        ) as executor:
            futures = {
                executor.submit(submit_shard, shard): shard for shard in active
            }
            for future, shard in futures.items():
                shard_stats = stats[shard.shard_id]
                shard_stats.attempts = 1
                try:
                    payload = future.result()
                except Exception as error:  # daemon unreachable etc.
                    shard_stats.error = f"{type(error).__name__}: {error}"
                else:
                    payloads[shard.shard_id] = payload
                    shard_stats.ok = True
                    shard_stats.wall_seconds = payload["wall_seconds"]
                    shard_stats.cache_hits = payload["cache_hits"]
                    shard_stats.cache_misses = payload["cache_misses"]
                with lock:
                    done["count"] += 1
                    self._observe_shard(shard_stats)
                    self._emit(
                        "shard-done",
                        shard,
                        done["count"],
                        len(active),
                        error=shard_stats.error,
                    )
        return payloads, stats

    # -- reassembly -----------------------------------------------------
    def _assemble(
        self,
        plan,
        shards: Sequence[SweepShard],
        payloads: Mapping[int, Mapping[str, object]],
        stats: Mapping[int, ShardStats],
    ) -> List[JobResult]:
        """Splice shard outcomes back into ``plan.jobs`` order.

        Jobs of a shard that never returned get explicit failed results —
        one dead shard degrades its own points, never the sweep.
        """
        results: List[Optional[JobResult]] = [None] * len(plan.jobs)
        for shard in shards:
            payload = payloads.get(shard.shard_id)
            if payload is None:
                error = stats[shard.shard_id].error or "shard did not run"
                for index in shard.job_indices:
                    results[index] = JobResult(
                        job=plan.jobs[index],
                        report=None,
                        cached=False,
                        runtime_seconds=0.0,
                        attempts=stats[shard.shard_id].attempts,
                        error=f"shard {shard.shard_id} failed: {error}",
                    )
                continue
            for outcome in payload["outcomes"]:
                results[outcome.job_index] = JobResult(
                    job=plan.jobs[outcome.job_index],
                    report=outcome.report,
                    cached=outcome.cached,
                    runtime_seconds=outcome.runtime_seconds,
                    attempts=outcome.attempts,
                    error=outcome.error,
                )
        holes = [i for i, result in enumerate(results) if result is None]
        if holes:  # a shard payload lied about its job indices
            raise ServiceError(
                f"sharded sweep returned no result for job index(es) {holes}"
            )
        return results  # type: ignore[return-value]

    # -- helpers --------------------------------------------------------
    def _observe_shard(self, stats: ShardStats) -> None:
        if not trace.enabled():
            return
        trace.record(
            "sweep.shard",
            duration=stats.wall_seconds,
            shard=stats.shard_id,
            jobs=stats.num_jobs,
            attempts=stats.attempts,
            outcome="ok" if stats.ok else "failed",
        )
        trace.counter("sweep.shards").add(1)
        if not stats.ok:
            trace.counter("sweep.failed_shards").add(1)

    def _emit(
        self,
        kind: str,
        shard: SweepShard,
        done_shards: int,
        total_shards: int,
        label: str = "",
        error: Optional[str] = None,
    ) -> None:
        if self.progress is None:
            return
        self.progress(
            ShardProgress(
                kind=kind,
                shard_id=shard.shard_id,
                num_jobs=shard.num_jobs,
                done_shards=done_shards,
                total_shards=total_shards,
                label=label,
                error=error,
            )
        )


__all__ = [
    "ShardProgress",
    "ShardStats",
    "ShardedSweepOutcome",
    "SweepCoordinator",
]
