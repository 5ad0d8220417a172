"""Client library for the detection daemon.

:class:`Client` speaks the JSON-lines protocol of
:mod:`repro.server.protocol` over the daemon's Unix socket.  Every
operation opens its own short-lived connection (Unix-domain connects cost
microseconds), so one ``Client`` is safe to share across threads and a
streaming ``submit`` never blocks an unrelated ``status`` probe.

>>> with Client("/tmp/repro-server.sock") as client:     # doctest: +SKIP
...     result = client.detect("designs/a.hgr", seed=7)  # doctest: +SKIP
...     print(result["report"]["summary"])               # doctest: +SKIP

``submit(..., wait=False)`` returns the ``queued`` acknowledgement
(carrying the job id) immediately; poll with :meth:`status` / fetch with
:meth:`result` later.  With ``wait=True`` (default) the call streams the
job's lifecycle — optionally surfacing each event through ``on_event`` —
and returns the terminal ``result`` payload, raising
:class:`~repro.errors.ServerError` on a failed or cancelled job.

Backpressure: a ``rejected`` response makes ``submit`` sleep the
advertised ``retry_after_s`` and retry, up to ``busy_retries`` times,
before surfacing :class:`~repro.errors.ServerBusy` to the caller.

:class:`DaemonRunner` puts a :class:`Client` behind the
:class:`~repro.service.jobs.BatchRunner` contract, so
:func:`~repro.service.sweep.run_sweep` can execute a sweep plan on a
daemon exactly as it does in this process (``repro sweep --via-daemon``).
"""

from __future__ import annotations

import socket
import time
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence

from repro.errors import ReproError, ServerBusy, ServerError, ServiceError
from repro.server import protocol
from repro.service.codec import config_to_dict, report_from_dict
from repro.service.jobs import (
    BatchProgress,
    DetectionJob,
    JobResult,
    ProgressCallback,
)
from repro.utils.timer import Timer

EventCallback = Callable[[Dict[str, Any]], None]


class Client:
    """Talk to a running :class:`~repro.server.daemon.ServerDaemon`.

    Args:
        socket_path: the daemon's Unix socket.
        timeout_s: per-read socket timeout while waiting for responses;
            streaming submits disable it (a queued sweep may legitimately
            sit for minutes).
        busy_retries: automatic retries after a backpressure rejection.
    """

    def __init__(
        self,
        socket_path: str,
        timeout_s: float = 30.0,
        busy_retries: int = 0,
    ) -> None:
        self.socket_path = socket_path
        self.timeout_s = timeout_s
        self.busy_retries = busy_retries

    # -- plumbing -------------------------------------------------------
    def _connect(self) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout_s)
        try:
            sock.connect(self.socket_path)
        except OSError as error:
            sock.close()
            raise ServerError(
                f"cannot reach daemon at {self.socket_path} ({error}); "
                f"is `repro serve` running?"
            ) from error
        return sock

    def _roundtrip(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """One request, one response line, connection closed."""
        with self._connect() as sock, sock.makefile("rwb") as stream:
            protocol.write_message(stream, request)
            response = protocol.read_message(stream)
        if response is None:
            raise ServerError("daemon closed the connection without replying")
        return self._checked(response)

    @staticmethod
    def _checked(response: Dict[str, Any]) -> Dict[str, Any]:
        if response.get("ok"):
            return response
        if response.get("event") == "rejected":
            raise ServerBusy(
                response.get("error", "daemon busy"),
                retry_after_s=float(response.get("retry_after_s", 1.0)),
            )
        raise ServerError(response.get("error", f"daemon error: {response}"))

    # -- operations -----------------------------------------------------
    def ping(self) -> Dict[str, Any]:
        """Liveness + version probe; raises when no daemon answers."""
        return self._roundtrip({"op": "ping"})

    def status(
        self, job_id: Optional[str] = None, group: str = ""
    ) -> Dict[str, Any]:
        """Server-level stats, or one job's lifecycle record.

        ``group`` filters the server-level ``jobs`` listing to one job
        group (e.g. :data:`SWEEP_GROUP`, every ``--via-daemon`` sweep job).
        """
        request: Dict[str, Any] = {"op": "status"}
        if job_id is not None:
            request["job_id"] = job_id
        if group:
            request["group"] = group
        return self._roundtrip(request)

    def result(self, job_id: str) -> Dict[str, Any]:
        """Terminal payload of a finished job (state line while running)."""
        return self._roundtrip({"op": "result", "job_id": job_id})

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Cancel a still-queued job."""
        return self._roundtrip({"op": "cancel", "job_id": job_id})

    def shutdown(self, drain: bool = True) -> Dict[str, Any]:
        """Ask the daemon to stop (draining its backlog by default)."""
        return self._roundtrip({"op": "shutdown", "drain": drain})

    def submit(
        self,
        design: str,
        kind: str = "detect",
        config: Optional[Dict[str, Any]] = None,
        stages: Optional[List[Dict[str, Any]]] = None,
        priority: str = "batch",
        label: str = "",
        group: str = "",
        wait: bool = True,
        on_event: Optional[EventCallback] = None,
        delta: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Submit one job; stream it to completion unless ``wait=False``.

        Returns the terminal ``result`` event payload (``wait=True``) or
        the ``queued``/``result`` acknowledgement (``wait=False`` — warm
        submits complete inline, so even a no-wait call may come back with
        the full result).

        ``delta`` (protocol 2, detect only) is a
        :meth:`repro.incremental.NetlistDelta.to_dict` payload; ``design``
        then names the *base* design and the daemon reconstructs the
        edited netlist server-side — the edit travels as JSON, the design
        is never re-shipped.
        """
        request: Dict[str, Any] = {
            "op": "submit",
            "kind": kind,
            "design": design,
            "priority": priority,
            "stream": wait,
        }
        if label:
            request["label"] = label
        if group:
            request["group"] = group
        if config is not None:
            request["config"] = config
        if stages is not None:
            request["stages"] = stages
        if delta is not None:
            if kind != "detect":
                raise ServerError('delta submits must have kind "detect"')
            request["delta"] = delta

        attempts = 0
        while True:
            try:
                if not wait:
                    return self._roundtrip(request)
                return self._stream_submit(request, on_event)
            except ServerBusy as busy:
                attempts += 1
                if attempts > self.busy_retries:
                    raise
                time.sleep(busy.retry_after_s)

    def detect(self, design: str, **config: Any) -> Dict[str, Any]:
        """Convenience: synchronous detect submit with config kwargs
        (:class:`~repro.finder.config.FinderConfig` fields; the daemon's
        pool decides parallelism).

        >>> client.detect("a.hgr", seed=7, num_seeds=16)  # doctest: +SKIP
        """
        return self.submit(design, kind="detect", config=config)

    def _stream_submit(
        self, request: Dict[str, Any], on_event: Optional[EventCallback]
    ) -> Dict[str, Any]:
        for event in self._stream(request):
            if on_event is not None:
                on_event(event)
            if event["event"] == "result":
                return event
            if event["event"] in ("error", "cancelled"):
                raise ServerError(
                    event.get("error")
                    or f"job {event.get('job_id')} {event.get('state')}"
                )
        raise ServerError("daemon closed the stream before a terminal event")

    def _stream(self, request: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
        with self._connect() as sock, sock.makefile("rwb") as stream:
            protocol.write_message(stream, request)
            first = protocol.read_message(stream)
            if first is None:
                raise ServerError(
                    "daemon closed the connection without replying"
                )
            yield self._checked(first)  # raises on rejected/error
            if first["event"] in ("result", "error", "cancelled"):
                return
            sock.settimeout(None)  # queued: the job may wait arbitrarily
            while True:
                event = protocol.read_message(stream)
                if event is None:
                    return
                yield event
                if event["event"] in ("result", "error", "cancelled"):
                    return

    # -- context management ---------------------------------------------
    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        pass  # connections are per-call; nothing held open


#: Job group of every :class:`DaemonRunner` submit (``repro status --group``).
SWEEP_GROUP = "sweep"


class DaemonRunner:
    """Run detection jobs on a daemon, with :class:`BatchRunner`'s contract.

    Jobs are submitted one at a time from one client at priority class
    ``sweep`` and job group :data:`SWEEP_GROUP`; the daemon's scheduler runs
    one job at a time anyway, and its store does the caching.  The daemon
    loads each design itself, so the netlists never cross the socket.

    Args:
        socket_path: the daemon's Unix socket.
        design_paths: job label -> design file the daemon can load.
        progress: callback invoked after every finished job.
    """

    def __init__(
        self,
        socket_path: str,
        design_paths: Mapping[str, str],
        progress: Optional[ProgressCallback] = None,
    ) -> None:
        self.design_paths = design_paths
        self.progress = progress
        self._client = Client(socket_path, busy_retries=8)

    def run(self, jobs: Sequence[DetectionJob]) -> List[JobResult]:
        """Execute ``jobs`` in order and return one result per job.

        A submit the daemon fails (or that cannot reach it) is that job's
        failed result; a bug on this side propagates.
        """
        missing = sorted(
            {job.label for job in jobs if job.label not in self.design_paths}
        )
        if missing:
            raise ServiceError(
                f"daemon dispatch has no design path for label(s): "
                f"{', '.join(missing)}"
            )
        results: List[JobResult] = []
        for job in jobs:
            results.append(self._run_one(job))
            if self.progress is not None:
                self.progress(
                    BatchProgress(done=len(results), total=len(jobs), result=results[-1])
                )
        return results

    def _run_one(self, job: DetectionJob) -> JobResult:
        timer = Timer()
        try:
            with timer:
                payload = self._client.submit(
                    self.design_paths[job.label],
                    config=config_to_dict(job.config),
                    priority="sweep",
                    label=job.label,
                    group=SWEEP_GROUP,
                )
        except ReproError as failure:
            return JobResult(
                job=job, report=None, cached=False,
                runtime_seconds=timer.elapsed, error=str(failure),
            )
        cached = bool(payload.get("cached"))
        return JobResult(
            job=job,
            report=report_from_dict(payload["report"]),
            cached=cached,
            runtime_seconds=float(payload.get("runtime_seconds", 0.0)),
            attempts=0 if cached else 1,
            incremental=payload.get("incremental") or {"mode": "cached"},
        )

    def close(self) -> None:
        """Nothing to release: connections are per submit."""

    def __enter__(self) -> "DaemonRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = ["SWEEP_GROUP", "Client", "DaemonRunner", "EventCallback"]
