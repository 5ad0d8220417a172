"""Reusable worker pool for seed-parallel detection runs.

The finder's seed trials are embarrassingly parallel, but a fresh
``ProcessPoolExecutor`` per run would re-send the whole netlist for every
chunk of every run.  :class:`WorkerPool` keeps one executor alive across
runs and ships each *design* to each worker once: workers memoize designs
by content fingerprint (:func:`~repro.service.fingerprint.fingerprint_netlist`),
and every seed batch travels as ``(design fingerprint, config, jobs)``.  Any
number of configs over one design — a sweep grid, an incremental patch, a
daemon's job stream — reuse the same worker-side netlist and its derived
caches.

A design reaches the workers one way: as a pack file (the layout of
:mod:`repro.io.binfmt`) that each worker maps with ``mmap``, so N workers
share one page-cache copy of the arrays.  The first batch a worker sees
for a design also carries the file's path:

* a netlist whose ``source`` is a pack file that still exists with a
  matching header fingerprint ships that file's own path — nothing is
  serialized;
* any other netlist is serialized once into an anonymous temporary file
  (on ``/dev/shm`` when it exists and has room) and the pool ships its
  ``/proc/<pid>/fd/<n>`` path.  No name ever appears in a directory, so
  closing the file is its whole lifecycle and the kernel reclaims it even
  if the parent is killed.

Workers check the loaded header fingerprint against the batch's key, so a
pack file replaced under the pool raises :class:`ServiceError` instead of
detecting on the wrong design.

Protocol: a batch submitted without a path to a worker that has not seen its
design yet returns a *miss* marker; the pool re-submits that batch with the
path attached as soon as the miss comes back (not after the run's other
batches), priming the worker until the design falls out of its bounded
memo.  A worker crash (``BrokenProcessPool``) restarts the executor
and replays the unfinished batches, up to ``max_retries`` times.  A worker
that died while the pool was *idle* (between jobs) is detected up front and
the executor is respawned lazily before the next run — without consuming a
retry.

Outcomes are returned in the original job order, so results are independent
of both the chunking and the worker count — ``workers=8`` reproduces the
``workers=1`` report exactly.
"""

from __future__ import annotations

import concurrent.futures
import os
import tempfile
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import IO, Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ParseError, ServiceError
from repro.finder.config import FinderConfig
from repro.finder.finder import _process_batch, _process_seed, _SeedOutcome
from repro.io.binfmt import load_packed, packed_fingerprint, serialize_netlist
from repro.netlist.hypergraph import Netlist
from repro.obs import trace
from repro.service.fingerprint import fingerprint_netlist

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None

# Worker-process-local design memo: fingerprint -> netlist.  Populated the
# first time a batch arrives with its design's path attached.  Bounded: only
# the most recently used designs are retained, so a long batch over many
# large designs holds a few netlists per worker, not all of them; an evicted
# design that comes back later is re-shipped through the miss protocol.
_WORKER_CONTEXTS: Dict[str, Netlist] = {}
_WORKER_CONTEXT_LIMIT = 4

#: Sentinel a worker returns when asked to run a batch for a design it has
#: never been shown.
_MISSING_CONTEXT = "__repro-missing-context__"

#: Where designs without a pack file are serialized for the workers:
#: memory-backed when the host has a tmpfs at ``/dev/shm``, else (or when it
#: is full) the default temp dir.
_BLOB_DIR = "/dev/shm" if os.path.isdir("/dev/shm") else None

_IndexedJob = Tuple[int, Tuple[int, int]]


def _load_design(key: str, path: str) -> Netlist:
    """Map the pack file at ``path`` and check it holds design ``key``."""
    netlist = load_packed(path)
    loaded = fingerprint_netlist(netlist)  # from the header: no content walk
    if loaded != key:
        raise ServiceError(
            f"pack file {path} changed under the pool: worker loaded "
            f"fingerprint {loaded}, parent shipped {key}"
        )
    return netlist


def _anonymous_file(data: bytes, directory: Optional[str]) -> IO[bytes]:
    """An unnamed temporary file in ``directory`` holding ``data``."""
    handle = tempfile.TemporaryFile(dir=directory)
    try:
        handle.write(data)
        handle.flush()
    except OSError:
        handle.close()
        raise
    return handle


def _worker_memory() -> Dict[str, float]:
    """Peak and current-private memory of this worker, in KiB.

    ``private_kb`` (``smaps_rollup`` Private_Clean + Private_Dirty) is the
    discriminating number under fork: pages inherited copy-on-write or
    mapped from a pack file count as Shared, so a worker serving a design
    out of its mapped pack file shows a flat private footprint.
    """
    memory = {"maxrss_kb": 0.0, "private_kb": 0.0}
    if resource is not None:
        memory["maxrss_kb"] = float(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        )
    try:
        with open("/proc/self/smaps_rollup") as handle:
            for line in handle:
                if line.startswith(("Private_Clean:", "Private_Dirty:")):
                    memory["private_kb"] += float(line.split()[1])
    except OSError:  # pragma: no cover - non-Linux
        pass
    return memory


def _worker_run_batch(
    key: str,
    config: FinderConfig,
    indexed_jobs: Sequence[_IndexedJob],
    path: Optional[str] = None,
    traced: bool = False,
):
    """Run ``(index, (seed_cell, rng_seed))`` jobs of design ``key`` inside a
    worker process; ``path`` (the design's pack file) primes the memo.

    When ``traced``, the worker captures the spans and metrics its seeds
    produce and returns ``{"rows", "spans", "metrics", "started_at",
    "execute_s", "maxrss_kb", "private_kb"}`` instead of the bare row list;
    the parent re-parents the spans under its own ``pool.task`` span and
    merges the metrics.
    """
    netlist = _WORKER_CONTEXTS.pop(key, None)
    if netlist is None and path is not None:
        netlist = _load_design(key, path)
    if netlist is None:
        return _MISSING_CONTEXT
    # LRU maintenance: dicts iterate in insertion order, so re-inserting the
    # live key and dropping from the front evicts least-recently-used first.
    _WORKER_CONTEXTS[key] = netlist
    while len(_WORKER_CONTEXTS) > _WORKER_CONTEXT_LIMIT:
        del _WORKER_CONTEXTS[next(iter(_WORKER_CONTEXTS))]
    if not traced:
        return [
            (index, _process_seed(netlist, config, cell, rng))
            for index, (cell, rng) in indexed_jobs
        ]
    started_at = time.time()  # wall clock: comparable with the parent's
    tracer = trace.get_tracer()
    with tracer.capture() as capture:
        began = trace.clock()
        with tracer.span("pool.batch", jobs=len(indexed_jobs)):
            rows = [
                (index, _process_seed(netlist, config, cell, rng))
                for index, (cell, rng) in indexed_jobs
            ]
        execute_s = trace.clock() - began
    return {
        "rows": rows,
        "spans": capture.spans,
        "metrics": capture.metrics,
        "started_at": started_at,
        "execute_s": execute_s,
        **_worker_memory(),
    }


@dataclass
class PoolStats:
    """Live counters of one :class:`WorkerPool` instance.

    Attributes:
        batches: seed batches submitted to workers (including re-submits).
        context_shipments: batches that carried a design's pack-file path.
        context_misses: batches bounced by an unprimed worker and re-sent.
        restarts: executor restarts after an in-task worker crash (these
            count against ``max_retries``).
        respawns: executors rebuilt *between* runs because a worker died
            while idle (e.g. OOM-killed); detected lazily on the next run
            and never counted against ``max_retries``.
        serial_runs: runs executed inline without touching the executor.
        context_bytes: bytes of pack-file path shipped to workers.
    """

    batches: int = 0
    context_shipments: int = 0
    context_misses: int = 0
    restarts: int = 0
    respawns: int = 0
    serial_runs: int = 0
    context_bytes: int = 0


class WorkerPool:
    """Persistent process pool that runs seed batches for many detections.

    Args:
        workers: worker process count; ``<= 1`` executes inline (serial,
            deterministic, nothing shipped).
        max_retries: executor restarts tolerated per run before giving up
            with :class:`ServiceError`.

    Each run carves its jobs into one seed batch per worker.
    """

    def __init__(self, workers: int, max_retries: int = 2) -> None:
        if workers < 1:
            raise ServiceError("WorkerPool workers must be >= 1")
        if max_retries < 0:
            raise ServiceError("WorkerPool max_retries must be >= 0")
        self.workers = workers
        self.max_retries = max_retries
        self.stats = PoolStats()
        self._executor: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self._shipped_keys: Set[str] = set()
        # fingerprint -> anonymous pack file of a design that has none of
        # its own; bounded like the worker memo (an evicted design is
        # re-serialized if it comes back).  Workers forked while a blob is
        # open inherit its descriptor and hold it until they exit.
        self._blobs: Dict[str, IO[bytes]] = {}

    # ------------------------------------------------------------------
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
                return _process_batch(netlist, config, jobs)

        key = fingerprint_netlist(netlist)
        indexed: List[_IndexedJob] = list(enumerate(jobs))
        num_batches = min(self.workers, len(indexed))
        remaining = [indexed[i::num_batches] for i in range(num_batches)]

        outcomes: List[Optional[_SeedOutcome]] = [None] * len(jobs)
        with trace.span(
            "pool.run", jobs=len(jobs), workers=self.workers, batches=num_batches
        ):
            self._run_batches(netlist, config, key, remaining, outcomes)
        return outcomes  # type: ignore[return-value]  # every slot is filled

    # ------------------------------------------------------------------
    def _design_path(self, netlist: Netlist, key: str) -> str:
        """The pack file workers map to load ``netlist`` (fingerprint ``key``).

        A design loaded from a pack file that is still in place ships that
        file; any other design is serialized once into a pool-owned
        anonymous file, reached through this process's ``/proc`` fd entry.
        """
        if os.path.isfile(netlist.source):
            try:
                if packed_fingerprint(netlist.source) == key:
                    return os.path.abspath(netlist.source)
            except (ParseError, OSError):
                pass
        blob = self._blobs.pop(key, None)
        if blob is None:
            data = serialize_netlist(netlist)
            try:
                blob = _anonymous_file(data, _BLOB_DIR)
            except OSError:  # /dev/shm full (containers often cap it)
                blob = _anonymous_file(data, None)
            if trace.enabled():
                trace.counter("pool.blob_files").add(1)
                trace.counter("pool.blob_bytes").add(len(data))
            while len(self._blobs) >= _WORKER_CONTEXT_LIMIT:
                self._blobs.pop(next(iter(self._blobs))).close()
        self._blobs[key] = blob  # (re-)insert last: LRU order
        return f"/proc/{os.getpid()}/fd/{blob.fileno()}"

    # ------------------------------------------------------------------
    def _run_batches(
        self,
        netlist: Netlist,
        config: FinderConfig,
        key: str,
        remaining: List[List[_IndexedJob]],
        outcomes: List[Optional[_SeedOutcome]],
    ) -> None:
        """Submit/retry the batch lists until every outcome slot is filled."""
        traced = trace.enabled()
        ship = key not in self._shipped_keys
        restarts = 0
        path: Optional[str] = None

        def submit(chunk: List[_IndexedJob], with_path: bool) -> bool:
            """Queue one batch on the current executor (carrying the
            design's path when ``with_path``); False when it is broken."""
            nonlocal path
            if with_path and path is None:
                path = self._design_path(netlist, key)
            try:
                future = executor.submit(
                    _worker_run_batch, key, config, chunk,
                    path if with_path else None, traced,
                )
            except (BrokenProcessPool, RuntimeError):
                return False
            futures[future] = chunk
            submitted_at[future] = time.time()
            self.stats.batches += 1
            if with_path:
                path_bytes = len(os.fsencode(path))
                self.stats.context_shipments += 1
                self.stats.context_bytes += path_bytes
                if traced:
                    trace.counter("pool.context_shipments").add(1)
                    trace.counter("pool.context_bytes").add(path_bytes)
            return True

        while remaining:
            executor = self._ensure_executor()
            futures: Dict[Any, List[_IndexedJob]] = {}
            submitted_at: Dict[Any, float] = {}
            broken = False
            retry: List[List[_IndexedJob]] = []
            for position, chunk in enumerate(remaining):
                if not submit(chunk, ship):
                    # The executor died while idle (e.g. a worker was OOM
                    # killed between runs): replay everything not yet
                    # submitted on a fresh executor.
                    broken = True
                    retry.extend(remaining[position:])
                    break
            self._shipped_keys.add(key)
            try:
                while futures:
                    done, _ = concurrent.futures.wait(
                        futures, return_when=concurrent.futures.FIRST_COMPLETED
                    )
                    for future in done:
                        chunk = futures.pop(future)
                        try:
                            result = future.result()
                        except (BrokenProcessPool, OSError):
                            broken = True
                            retry.append(chunk)
                            continue
                        if result == _MISSING_CONTEXT:
                            self.stats.context_misses += 1
                            if traced:
                                trace.counter("pool.context_misses").add(1)
                            # Re-send at once, with the path, so the bounced
                            # batch runs beside the others, not after them.
                            if broken or not submit(chunk, True):
                                broken = True
                                retry.append(chunk)
                            continue
                        rows = result
                        if traced and isinstance(result, dict):
                            rows = result["rows"]
                            self._record_task(
                                result, submitted_at[future], len(chunk)
                            )
                        for index, outcome in rows:
                            outcomes[index] = outcome
            except BaseException:
                # An application error surfaced from a worker: don't leave
                # this run's other batches computing into a shared pool that
                # the next job will queue behind.
                for future in futures:
                    future.cancel()
                raise

            if broken:
                restarts += 1
                self.stats.restarts += 1
                if traced:
                    trace.counter("pool.restarts").add(1)
                if restarts > self.max_retries:
                    raise ServiceError(
                        f"worker pool crashed {restarts} time(s); giving up "
                        f"after {self.max_retries} restart(s)"
                    )
                self._restart_executor()
            # Batches replayed into a fresh executor carry the path.
            ship = True
            remaining = retry

    def _record_task(
        self, result: Dict[str, Any], submitted: float, num_jobs: int
    ) -> None:
        """Emit one ``pool.task`` span from a traced worker result and merge
        the worker's telemetry under it.

        Task duration/queue wait are wall-clock deltas (``time.time``): the
        worker's monotonic clock origin is not comparable with the parent's.
        """
        tracer = trace.get_tracer()
        task_id = tracer.record(
            "pool.task",
            duration=max(0.0, time.time() - submitted),
            queue_wait_s=max(0.0, result["started_at"] - submitted),
            execute_s=result["execute_s"],
            jobs=num_jobs,
            maxrss_kb=result.get("maxrss_kb", 0.0),
            private_kb=result.get("private_kb", 0.0),
        )
        tracer.adopt(result["spans"], parent_id=task_id)
        tracer.merge_metrics(result["metrics"])
        trace.counter("pool.tasks").add(1)
        trace.histogram("pool.worker_maxrss_kb").observe(
            result.get("maxrss_kb", 0.0)
        )
        trace.histogram("pool.worker_private_kb").observe(
            result.get("private_kb", 0.0)
        )

    # ------------------------------------------------------------------
    def _workers_dead(self) -> bool:
        """True when the idle executor has lost a worker (or broke).

        A worker OOM-killed *between* jobs leaves the executor poisoned:
        the next submit would raise ``BrokenProcessPool`` and burn one of
        the run's retries on a failure that predates it.  Checking process
        liveness up front lets :meth:`_ensure_executor` rebuild lazily —
        the next task starts on a healthy pool and retries stay reserved
        for crashes that happen *during* that task.
        """
        executor = self._executor
        if executor is None:
            return False
        if getattr(executor, "_broken", False):
            return True
        processes = getattr(executor, "_processes", None)
        if not processes:
            return False
        return any(not process.is_alive() for process in processes.values())

    def _ensure_executor(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._executor is not None and self._workers_dead():
            self.stats.respawns += 1
            if trace.enabled():
                trace.counter("pool.respawns").add(1)
            self._restart_executor()
        if self._executor is None:
            self._executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers
            )
            self._shipped_keys.clear()
        return self._executor

    def _restart_executor(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        self._shipped_keys.clear()

    def shutdown(self) -> None:
        """Stop the worker processes and close the pool's blob files
        (idempotent); the pool may be reused — the next run lazily starts a
        fresh executor."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        self._shipped_keys.clear()
        while self._blobs:
            self._blobs.popitem()[1].close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
