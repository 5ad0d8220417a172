"""Priority job queue of the detection daemon.

The queue is the daemon's admission-control and scheduling core:

* **Priority classes.**  Jobs carry one of three classes —
  ``interactive`` > ``batch`` > ``sweep`` — and the dispatcher serves the
  highest non-empty class first, FIFO within a class.
* **Starvation freedom.**  Strict priority alone would let a stream of
  interactive jobs starve a queued sweep forever.  Every dispatch that
  passes over a non-empty class increments that class's *skip counter*;
  once a class has been skipped ``starvation_limit`` times it is served
  next regardless of priority.  The scheme is count-based (no clocks), so
  scheduling order is deterministic and unit-testable: under sustained
  interactive load a sweep job is dispatched at least once every
  ``starvation_limit + 1`` dispatches.
* **Bounded depth + explicit backpressure.**  ``submit`` on a full queue
  raises :class:`~repro.errors.ServerBusy` carrying a ``retry_after_s``
  hint scaled by the backlog — the daemon turns that into a ``rejected``
  protocol response instead of letting latency grow without bound.
* **Job lifecycle.**  Every job moves ``queued -> running ->
  done | failed | cancelled``; records stay queryable by job id after
  completion (bounded history) and publish their state transitions as
  events to any number of stream subscribers.

The queue is thread-safe: connection threads submit/cancel/query while the
scheduler thread blocks in :meth:`JobQueue.next_job`.
"""

from __future__ import annotations

import itertools
import queue as _stdlib_queue
import threading
import time
import uuid
from collections import OrderedDict, deque
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ServerBusy, ServerError

#: Priority classes, best-served first.
PRIORITIES = ("interactive", "batch", "sweep")

#: Default priority class of a submit request that names none.
DEFAULT_PRIORITY = "batch"

#: Base of the backpressure hint a rejected submit carries; the advertised
#: delay grows linearly with the backlog.
RETRY_AFTER_S = 0.25

# Lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a job never leaves.
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})


def validate_priority(priority: str) -> str:
    """Return ``priority`` or raise :class:`ServerError` naming the classes."""
    if priority not in PRIORITIES:
        raise ServerError(
            f"unknown priority {priority!r}; expected one of {PRIORITIES}"
        )
    return priority


class JobRecord:
    """One job owned by the daemon: request, lifecycle state, event stream.

    Attributes:
        job_id: server-assigned short hex id.
        kind: ``"detect"`` or ``"flow"``.
        priority: one of :data:`PRIORITIES`.
        label: caller-facing name (defaults to the design path).
        group: caller-assigned job-group tag (e.g. ``sweep`` for every
            ``repro sweep --via-daemon`` job); empty for ungrouped jobs.  Status queries
            can filter the recent-jobs listing by it.
        request: the parsed submit request (design path, config, ...).
        state: current lifecycle state.
        fingerprint: content fingerprint, set once the design is loaded.
        cached: True when the result was answered from the store.
        error: terminal error string when ``state == "failed"``.
        result: terminal result payload (the ``result`` event's body).
        context: what the daemon executes — ``(netlist, flow,
            stage_fingerprints)`` for either kind (a delta submit's base
            netlist rides in its detect stage); dropped by :meth:`finish`
            so the job history holds no designs.
    """

    def __init__(
        self,
        kind: str,
        priority: str,
        request: Dict[str, Any],
        label: str = "",
        fingerprint: str = "",
        group: str = "",
    ) -> None:
        self.job_id = uuid.uuid4().hex[:12]
        self.kind = kind
        self.priority = validate_priority(priority)
        self.label = label
        self.group = group
        self.request = request
        self.fingerprint = fingerprint
        self.state = QUEUED
        self.cached = False
        self.error: Optional[str] = None
        self.result: Optional[Dict[str, Any]] = None
        self.context: Optional[Tuple[Any, ...]] = None
        self.created_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self._lock = threading.Lock()
        self._events: List[Dict[str, Any]] = []
        self._subscribers: List[_stdlib_queue.SimpleQueue] = []

    def finish(
        self,
        state: str,
        result: Optional[Dict[str, Any]] = None,
        error: Optional[str] = None,
    ) -> None:
        """Move to terminal ``state``: the one place a job ends.

        Releases the netlists the job ran on — a terminal record lives on
        in the status history, and a design per record would pin hundreds
        of megabytes there.
        """
        self.state = state
        self.finished_at = time.time()
        self.result = result
        self.error = error
        self.context = None

    # -- event streaming ------------------------------------------------
    def publish(self, event: str, **fields: Any) -> Dict[str, Any]:
        """Record one lifecycle event and fan it out to all subscribers."""
        payload = {
            "ok": True,
            "event": event,
            "job_id": self.job_id,
            "state": self.state,
            **fields,
        }
        with self._lock:
            self._events.append(payload)
            for subscriber in self._subscribers:
                subscriber.put(payload)
        return payload

    def subscribe(self) -> _stdlib_queue.SimpleQueue:
        """A queue primed with the event history, then fed live events.

        Late subscribers (a client that reconnects to stream a job it
        submitted earlier) replay everything already published, so the
        terminal event is never missed.
        """
        subscriber: _stdlib_queue.SimpleQueue = _stdlib_queue.SimpleQueue()
        with self._lock:
            for event in self._events:
                subscriber.put(event)
            self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: _stdlib_queue.SimpleQueue) -> None:
        with self._lock:
            if subscriber in self._subscribers:
                self._subscribers.remove(subscriber)

    # -- views ----------------------------------------------------------
    @property
    def wait_seconds(self) -> float:
        """Queue wait: submit to dispatch (or to now while still queued)."""
        reference = self.started_at or self.finished_at or time.time()
        return max(0.0, reference - self.created_at)

    @property
    def run_seconds(self) -> float:
        """Execution time: dispatch to completion (0.0 before dispatch)."""
        if self.started_at is None:
            return 0.0
        return max(0.0, (self.finished_at or time.time()) - self.started_at)

    def to_dict(self) -> Dict[str, Any]:
        """Status-query form of this record (no result payload)."""
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "priority": self.priority,
            "label": self.label,
            "group": self.group,
            "state": self.state,
            "fingerprint": self.fingerprint,
            "cached": self.cached,
            "error": self.error,
            "created_at": self.created_at,
            "wait_s": self.wait_seconds,
            "run_s": self.run_seconds,
        }


class JobQueue:
    """Bounded, priority-classed, starvation-free job queue.

    Args:
        max_depth: queued (not yet dispatched) jobs admitted before
            ``submit`` rejects with :class:`ServerBusy`.
        starvation_limit: dispatches a non-empty class may be passed over
            before it is forcibly served next.
        history: completed records retained for status queries.
    """

    def __init__(
        self,
        max_depth: int = 64,
        starvation_limit: int = 8,
        history: int = 256,
    ) -> None:
        if max_depth < 1:
            raise ServerError("JobQueue max_depth must be >= 1")
        if starvation_limit < 1:
            raise ServerError("JobQueue starvation_limit must be >= 1")
        self.max_depth = max_depth
        self.starvation_limit = starvation_limit
        self.history = history
        self._condition = threading.Condition()
        self._queues: Dict[str, deque] = {p: deque() for p in PRIORITIES}
        self._skipped: Dict[str, int] = {p: 0 for p in PRIORITIES}
        self._records: "OrderedDict[str, JobRecord]" = OrderedDict()
        self._closed = False
        self.submitted = 0
        self.dispatched: Dict[str, int] = {p: 0 for p in PRIORITIES}
        self.rejected = 0
        self.cancelled = 0

    # -- admission ------------------------------------------------------
    def submit(self, record: JobRecord) -> int:
        """Admit ``record``; returns its queue position (1-based).

        Raises :class:`ServerBusy` when the queue is at ``max_depth`` and
        :class:`ServerError` once the queue is closed to new work.
        """
        with self._condition:
            if self._closed:
                raise ServerError("daemon is shutting down; not accepting jobs")
            depth = self.depth()
            if depth >= self.max_depth:
                self.rejected += 1
                retry_after = RETRY_AFTER_S * (1.0 + depth / self.max_depth)
                raise ServerBusy(
                    f"job queue full ({depth}/{self.max_depth} queued); "
                    f"retry in {retry_after:.2f}s",
                    retry_after_s=retry_after,
                )
            self._queues[record.priority].append(record)
            self._remember(record)
            self.submitted += 1
            position = depth + 1
            self._condition.notify()
        return position

    def remember(self, record: JobRecord) -> None:
        """Make a record queryable by job id without queueing it.

        The daemon's warm path answers a submit inline from the store; the
        job never enters the backlog, but its id must still resolve for
        ``status``/``result`` queries.
        """
        with self._condition:
            self._remember(record)

    def _remember(self, record: JobRecord) -> None:
        self._records[record.job_id] = record
        # Evict oldest *terminal* records beyond the history bound; live
        # jobs are never dropped no matter how old.
        while len(self._records) > self.history:
            for job_id, old in self._records.items():
                if old.state in TERMINAL_STATES:
                    del self._records[job_id]
                    break
            else:
                break

    # -- dispatch -------------------------------------------------------
    def _pick_class(self) -> Optional[str]:
        """The class to serve next, or ``None`` when nothing is queued."""
        candidates = [p for p in PRIORITIES if self._queues[p]]
        if not candidates:
            return None
        overdue = [
            p for p in candidates if self._skipped[p] >= self.starvation_limit
        ]
        if overdue:
            # Most-starved first; ties go to the higher class.
            chosen = max(overdue, key=lambda p: self._skipped[p])
        else:
            chosen = candidates[0]  # PRIORITIES is ordered best-first
        for p in candidates:
            if p != chosen:
                self._skipped[p] += 1
        self._skipped[chosen] = 0
        return chosen

    def next_job(self, timeout: Optional[float] = None) -> Optional[JobRecord]:
        """Block until a job is available; ``None`` on timeout or once the
        queue is closed and (when draining) empty."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._condition:
            while True:
                chosen = self._pick_class()
                if chosen is not None:
                    record = self._queues[chosen].popleft()
                    self.dispatched[chosen] += 1
                    return record
                if self._closed:
                    return None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._condition.wait(remaining)
                else:
                    self._condition.wait()

    # -- control --------------------------------------------------------
    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a *queued* job; raises :class:`ServerError` otherwise.

        Running jobs are not interruptible (a seed batch in flight inside
        the worker pool cannot be unwound safely); terminal jobs are
        already decided.
        """
        with self._condition:
            record = self._records.get(job_id)
            if record is None:
                raise ServerError(f"unknown job id {job_id!r}")
            if record.state != QUEUED:
                raise ServerError(
                    f"job {job_id} is {record.state}; only queued jobs "
                    f"can be cancelled"
                )
            self._queues[record.priority].remove(record)
            record.finish(CANCELLED)
            self.cancelled += 1
        record.publish("cancelled")
        return record

    def close(self, drain: bool = True) -> List[JobRecord]:
        """Stop admitting jobs; returns the records cancelled (if any).

        With ``drain=True`` (graceful shutdown) everything already queued
        stays dispatchable — :meth:`next_job` keeps serving until the
        backlog is empty, then returns ``None``.  With ``drain=False`` the
        backlog is cancelled immediately.
        """
        dropped: List[JobRecord] = []
        with self._condition:
            self._closed = True
            if not drain:
                for backlog in self._queues.values():
                    while backlog:
                        record = backlog.popleft()
                        record.finish(CANCELLED)
                        self.cancelled += 1
                        dropped.append(record)
            self._condition.notify_all()
        for record in dropped:
            record.publish("cancelled", reason="shutdown")
        return dropped

    # -- views ----------------------------------------------------------
    def get(self, job_id: str) -> Optional[JobRecord]:
        with self._condition:
            return self._records.get(job_id)

    def depth(self) -> int:
        """Jobs currently queued (running/finished jobs excluded)."""
        return sum(len(backlog) for backlog in self._queues.values())

    def depths(self) -> Dict[str, int]:
        """Queued jobs per priority class."""
        with self._condition:
            return {p: len(self._queues[p]) for p in PRIORITIES}

    def snapshot(self) -> Dict[str, Any]:
        """Queue-level stats for the daemon's status response."""
        with self._condition:
            states: Dict[str, int] = {}
            for record in self._records.values():
                states[record.state] = states.get(record.state, 0) + 1
            return {
                "depth": self.depth(),
                "depths": {p: len(self._queues[p]) for p in PRIORITIES},
                "max_depth": self.max_depth,
                "submitted": self.submitted,
                "dispatched": dict(self.dispatched),
                "rejected": self.rejected,
                "cancelled": self.cancelled,
                "states": states,
                "closed": self._closed,
            }

    def jobs(self, limit: int = 50, group: str = "") -> List[Dict[str, Any]]:
        """Most recent job records (newest first); optionally one group's."""
        with self._condition:
            records = reversed(self._records.values())
            if group:
                records = (r for r in records if r.group == group)
            recent = list(itertools.islice(records, limit))
        return [record.to_dict() for record in recent]


__all__ = [
    "CANCELLED",
    "DEFAULT_PRIORITY",
    "DONE",
    "FAILED",
    "JobQueue",
    "JobRecord",
    "PRIORITIES",
    "QUEUED",
    "RETRY_AFTER_S",
    "RUNNING",
    "TERMINAL_STATES",
    "validate_priority",
]
