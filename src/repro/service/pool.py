"""Reusable seed pool for seed-parallel detection runs.

The finder's seed trials are independent, and the paper runs them on 8
pthreads in one process.  :class:`WorkerPool` does the same: one lazily
started ``ThreadPoolExecutor`` kept alive across runs, one task per seed.
Every thread reads the one :class:`~repro.netlist.hypergraph.Netlist` and
the derived tables it builds once (:meth:`Netlist.derived`), so nothing is
copied or shipped, and any number of configs over one design — a sweep
grid, an incremental patch, a daemon's job stream — share them.  The
compiled Phase I kernel (:mod:`repro.finder.kernel`) releases the GIL while
it grows an ordering, which is most of a seed's time; on the scalar backend
(``REPRO_SCALAR_BACKEND=1``) or without a C compiler the seeds still run on
the threads, but mostly one at a time under the GIL.

Outcomes are returned in job order, so results are independent of the
thread count — ``workers=8`` reproduces the ``workers=1`` report exactly.
A seed that raises makes :meth:`WorkerPool.run_seed_jobs` cancel the run's
pending seeds, wait for its running ones and re-raise that exception; the
pool stays usable.  A crash inside the C kernel ends the whole process.

Traced runs open one ``pool.task`` span per seed on its thread, parented
under the submitting thread's ``pool.run`` span, with the seed's
``finder.seed`` span beneath it; the task carries ``queue_wait_s`` (the
dispatch latency) and ``execute_s``.
"""

from __future__ import annotations

import concurrent.futures
import threading
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ServiceError
from repro.finder.config import FinderConfig
from repro.finder.finder import _process_seed, _SeedOutcome
from repro.netlist.hypergraph import Netlist
from repro.obs import trace


@dataclass
class PoolStats:
    """Live counters of one :class:`WorkerPool` instance.

    Attributes:
        batches: seed tasks handed to the threads (one seed each).
        serial_runs: runs executed inline without touching the threads.
    """

    batches: int = 0
    serial_runs: int = 0


class WorkerPool:
    """Persistent thread pool that runs the seed trials of many detections.

    Args:
        workers: seed threads; ``<= 1`` executes inline (serial).
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ServiceError("WorkerPool workers must be >= 1")
        self.workers = workers
        self.stats = PoolStats()
        self._executor: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self._thread = threading.local()  # per pool thread: free_at

    def run_seed_jobs(
        self,
        netlist: Netlist,
        config: FinderConfig,
        jobs: Sequence[Tuple[int, int]],
    ) -> List[_SeedOutcome]:
        """Run ``(seed_cell, rng_seed)`` jobs; outcomes in job order."""
        jobs = list(jobs)
        if not jobs:
            return []
        if self.workers <= 1 or len(jobs) == 1:
            self.stats.serial_runs += 1
            with trace.span("pool.serial", jobs=len(jobs)):
                return [_process_seed(netlist, config, *job) for job in jobs]

        if self._executor is None:
            self._executor = concurrent.futures.ThreadPoolExecutor(
                self.workers, thread_name_prefix="repro-seed"
            )
        with trace.span("pool.run", jobs=len(jobs), workers=self.workers) as run:
            submitted = trace.clock()
            futures = [
                self._executor.submit(
                    self._run_task, netlist, config, job, run.span_id, submitted
                )
                for job in jobs
            ]
            self.stats.batches += len(futures)
            try:
                concurrent.futures.wait(
                    futures, return_when=concurrent.futures.FIRST_EXCEPTION
                )
            finally:
                # After a failure (or an interrupt), drop the seeds that
                # have not started; a no-op on finished ones.
                for future in futures:
                    future.cancel()
            # Seeds already running finish before the error surfaces, so
            # the next run never queues behind this one's leftovers.
            concurrent.futures.wait(futures)
            return [future.result() for future in futures]

    def _run_task(
        self,
        netlist: Netlist,
        config: FinderConfig,
        job: Tuple[int, int],
        parent_id: Optional[str],
        submitted: float,
    ) -> _SeedOutcome:
        """One ``(seed_cell, rng_seed)`` job on a pool thread."""
        began = trace.clock()
        # Dispatch latency: from when this thread could take the task (its
        # submission, or the end of the thread's previous task if later),
        # not the time it waited behind its sibling seeds.
        ready = max(submitted, getattr(self._thread, "free_at", submitted))
        with trace.span(
            "pool.task", parent_id=parent_id, queue_wait_s=began - ready
        ) as task:
            outcome = _process_seed(netlist, config, *job)
            task.set(execute_s=trace.clock() - began)
        trace.counter("pool.tasks").add(1)
        self._thread.free_at = trace.clock()
        return outcome

    def shutdown(self) -> None:
        """Stop the threads (idempotent); the pool may be reused — the next
        run lazily starts a fresh executor."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
