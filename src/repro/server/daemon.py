"""The long-lived detection daemon.

One :class:`ServerDaemon` process owns the expensive state every one-shot
CLI run pays to rebuild — a warm :class:`~repro.service.pool.WorkerPool`,
an open WAL-mode :class:`~repro.service.store.ResultStore` and an LRU of
loaded designs (:class:`DesignCache`) — and serves
detect and flow jobs over a local Unix socket in the JSON-lines protocol
of :mod:`repro.server.protocol`.

Threading model:

* the **listener thread** accepts connections (``socketserver`` threading
  server; one daemon thread per connection);
* **connection threads** parse requests, answer warm (already-cached)
  submits inline from the store — no queueing, no process spawn — and
  enqueue cold submits into the :class:`~repro.server.queue.JobQueue`;
* one **scheduler thread** dispatches queued jobs priority-first
  (starvation-free) and executes them against the shared pool + store,
  publishing ``started``/``progress``/``result`` events that streaming
  connections relay as JSONL;
* the pool's **seed threads** run each job's seed trials.  A seed that
  raises fails its job with a typed error and the daemon serves on; a
  crash inside the compiled kernel ends the daemon process.

Designs come from the store's cache dir when they can: a text design that
``repro pack MANIFEST --cache-dir DIR`` packed ahead of time is
mmap-loaded from ``DIR/designs/`` while the file's stat still matches
(:mod:`repro.service.designs`), and the first detect of any design packs
it there for later delta submits.

Shutdown is graceful by default: on SIGTERM (or a ``shutdown`` request)
the daemon stops accepting work, lets the scheduler finish everything
already admitted, then releases the pool, the store and the socket.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import signal
import socket
import socketserver
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.errors import ReproError, ServerBusy, ServerError
from repro.flow.flow import Flow
from repro.flow.manifest import stage_from_entry
from repro.flow.stages import IncrementalDetectStage
from repro.io import PACKED_EXTENSION, load_design
from repro.netlist.hypergraph import Netlist
from repro.obs import trace
from repro.server import protocol
from repro.server.queue import (
    DEFAULT_PRIORITY,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    JobQueue,
    JobRecord,
)
from repro.service import designs
from repro.service.codec import config_from_dict, report_to_dict
from repro.service.fingerprint import fingerprint_netlist
from repro.service.pool import WorkerPool
from repro.service.store import ResultStore

logger = logging.getLogger(__name__)

#: Default Unix socket path (override with ``--socket``).
DEFAULT_SOCKET = "/tmp/repro-server.sock"

#: How long shutdown waits for the scheduler to finish the backlog before
#: giving up.
DRAIN_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class ServerConfig:
    """All knobs of one :class:`ServerDaemon`.

    Attributes:
        socket_path: Unix socket the daemon listens on.
        cache_dir: result-store directory (shared, WAL-mode safe).
        workers: seed threads in the shared pool.
        max_queue_depth: queued jobs admitted before backpressure.
        starvation_limit: scheduler dispatches a class may be passed over.
        max_designs: designs kept loaded in the LRU.
    """

    socket_path: str = DEFAULT_SOCKET
    cache_dir: str = ".repro-cache"
    workers: int = 1
    max_queue_depth: int = 64
    starvation_limit: int = 8
    max_designs: int = 8

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ServerError("ServerConfig workers must be >= 1")
        if self.max_designs < 1:
            raise ServerError("ServerConfig max_designs must be >= 1")


@dataclass
class DesignCacheStats:
    """Live counters of one :class:`DesignCache`."""

    hits: int = 0
    misses: int = 0
    pack_loads: int = 0
    reloads: int = 0


class DesignCache:
    """Bounded LRU of loaded designs, keyed by absolute source path.

    Every entry remembers the source file's ``(mtime_ns, size)`` at load
    time; a request for a path whose stat changed reloads instead of
    serving a stale netlist.  Given a ``store``, a text design that
    ``repro pack --cache-dir`` packed into it is served by mmap-loading
    that pack while the file's stat still matches the pack-time one — the
    parse cost is paid zero times, not once.  A ``.nla`` path loads as
    itself.
    """

    def __init__(
        self, max_designs: int = 8, store: Optional[ResultStore] = None
    ) -> None:
        self.max_designs = max_designs
        self.stats = DesignCacheStats()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Tuple[Netlist, str, Tuple[int, int]]]" = (
            OrderedDict()
        )
        self._store = store

    def get(self, path: str) -> Tuple[Netlist, str]:
        """``(netlist, fingerprint)`` for ``path``, loading on first use."""
        path = os.path.abspath(path)
        try:
            signature = designs.stat_signature(path)
        except OSError as error:
            raise ServerError(f"cannot stat design {path}: {error}") from error
        # The lock covers the load too: two connections racing on the same
        # cold design must not parse it twice (and must see one netlist).
        with self._lock:
            entry = self._entries.get(path)
            if entry is not None and entry[2] == signature:
                self._entries.move_to_end(path)
                self.stats.hits += 1
                return entry[0], entry[1]
            if entry is not None:
                self.stats.reloads += 1
            netlist = self._load(path, signature)
            fingerprint = fingerprint_netlist(netlist)
            self._entries[path] = (netlist, fingerprint, signature)
            self._entries.move_to_end(path)
            while len(self._entries) > self.max_designs:
                self._entries.popitem(last=False)
            self.stats.misses += 1
            return netlist, fingerprint

    def _load(self, path: str, signature: Tuple[int, int]) -> Netlist:
        if self._store is not None and not path.lower().endswith(PACKED_EXTENSION):
            netlist = designs.load_source(self._store, path, signature)
            if netlist is not None:
                self.stats.pack_loads += 1
                return netlist
        return load_design(path)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "loaded": len(self),
            "max_designs": self.max_designs,
            **dataclasses.asdict(self.stats),
        }


class _ConnectionHandler(socketserver.StreamRequestHandler):
    """One connection: a sequence of JSONL requests, dispatched in turn."""

    def handle(self) -> None:
        daemon: "ServerDaemon" = self.server.repro_daemon  # type: ignore[attr-defined]
        while True:
            try:
                message = protocol.read_message(self.rfile)
            except ServerError:
                return  # peer sent garbage framing or vanished; drop it
            if message is None:
                return
            try:
                request = protocol.parse_request(message)
                daemon.dispatch(request, self.wfile)
            except ServerBusy as busy:
                self._respond(
                    {
                        "ok": False,
                        "event": "rejected",
                        "error": str(busy),
                        "retry_after_s": busy.retry_after_s,
                        "queue_depth": daemon.queue.depth(),
                    }
                )
            except ReproError as error:
                self._respond(protocol.error_response(error))
            except ServerError:
                return

    def _respond(self, payload: Dict[str, Any]) -> None:
        try:
            protocol.write_message(self.wfile, payload)
        except ServerError:
            pass  # peer already gone


class _SocketServer(socketserver.ThreadingMixIn, socketserver.UnixStreamServer):
    daemon_threads = True
    allow_reuse_address = False


def _claim_socket(socket_path: str) -> None:
    """Remove a stale socket file; refuse to displace a live daemon."""
    if not os.path.exists(socket_path):
        return
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        probe.settimeout(0.5)
        probe.connect(socket_path)
    except OSError:
        os.unlink(socket_path)  # dead leftover from an unclean exit
    else:
        raise ServerError(
            f"a daemon is already listening on {socket_path}; "
            f"stop it first or choose another --socket"
        )
    finally:
        probe.close()


class ServerDaemon:
    """The daemon: warm pool + store + design LRU behind a local socket.

    >>> daemon = ServerDaemon(ServerConfig(socket_path=sock))  # doctest: +SKIP
    >>> daemon.start()                                         # doctest: +SKIP
    >>> ... clients connect ...                                # doctest: +SKIP
    >>> daemon.shutdown(drain=True)                            # doctest: +SKIP

    ``serve_forever()`` wraps start/wait/shutdown and installs
    SIGTERM/SIGINT handlers (graceful drain) when running on the main
    thread — the ``repro serve`` entry point.
    """

    def __init__(self, config: ServerConfig, start_scheduler: bool = True) -> None:
        if not hasattr(socket, "AF_UNIX"):  # pragma: no cover - non-POSIX
            raise ServerError("repro.server requires Unix-domain sockets")
        self.config = config
        self.store = ResultStore(config.cache_dir)
        self.pool = WorkerPool(config.workers)
        self.designs = DesignCache(
            max_designs=config.max_designs, store=self.store
        )
        self.queue = JobQueue(
            max_depth=config.max_queue_depth,
            starvation_limit=config.starvation_limit,
        )
        self.started_at = time.time()
        self.counters: Dict[str, int] = {
            "requests": 0,
            "warm_hits": 0,
            "done": 0,
            "failed": 0,
        }
        self._start_scheduler = start_scheduler
        self._scheduler: Optional[threading.Thread] = None
        self._listener: Optional[threading.Thread] = None
        self._server: Optional[_SocketServer] = None
        self._lifecycle = threading.Lock()
        self._started = False
        self._closed = threading.Event()

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Bind the socket and start the listener (and scheduler) threads."""
        with self._lifecycle:
            if self._started:
                raise ServerError("daemon already started")
            self._started = True
        _claim_socket(self.config.socket_path)
        socket_dir = os.path.dirname(os.path.abspath(self.config.socket_path))
        os.makedirs(socket_dir, exist_ok=True)
        self._server = _SocketServer(self.config.socket_path, _ConnectionHandler)
        self._server.repro_daemon = self  # type: ignore[attr-defined]
        self._listener = threading.Thread(
            target=self._server.serve_forever,
            name="repro-server-listener",
            daemon=True,
        )
        self._listener.start()
        if self._start_scheduler:
            self._scheduler = threading.Thread(
                target=self._scheduler_loop, name="repro-server-scheduler"
            )
            self._scheduler.start()
        logger.info(
            "repro daemon listening on %s (workers=%d, cache=%s)",
            self.config.socket_path,
            self.config.workers,
            self.config.cache_dir,
        )

    def serve_forever(self) -> None:
        """``start()``, then block until a shutdown request or signal."""
        if threading.current_thread() is threading.main_thread():
            signal.signal(signal.SIGTERM, self._on_signal)
            signal.signal(signal.SIGINT, self._on_signal)
        self.start()
        self._closed.wait()

    def wait_until_stopped(self, timeout: Optional[float] = None) -> bool:
        """Block until the daemon has fully shut down (True when it has)."""
        return self._closed.wait(timeout)

    def _on_signal(self, signum, _frame) -> None:  # pragma: no cover - signals
        logger.info("signal %d: draining and shutting down", signum)
        self.request_shutdown(drain=True)

    def request_shutdown(self, drain: bool = True) -> None:
        """Trigger an asynchronous shutdown (idempotent, non-blocking)."""
        threading.Thread(
            target=self.shutdown, kwargs={"drain": drain}, daemon=True
        ).start()

    def shutdown(self, drain: bool = True) -> None:
        """Stop the daemon; with ``drain`` finish the admitted backlog first."""
        with self._lifecycle:
            if self._closed.is_set():
                return
            if not self._started:
                self._closed.set()
                self.pool.shutdown()
                self.store.close()
                return
            self._started = False
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
        dropped = self.queue.close(drain=drain)
        if dropped:
            logger.info("shutdown cancelled %d queued job(s)", len(dropped))
        if self._scheduler is not None:
            self._scheduler.join(timeout=DRAIN_TIMEOUT_S)
            if self._scheduler.is_alive():  # pragma: no cover - pathological
                logger.warning(
                    "scheduler did not drain within %.0fs; abandoning",
                    DRAIN_TIMEOUT_S,
                )
        self.pool.shutdown()
        self.store.close()
        if os.path.exists(self.config.socket_path):
            try:
                os.unlink(self.config.socket_path)
            except OSError:  # pragma: no cover - racing unlink
                pass
        self._closed.set()
        logger.info("repro daemon stopped")

    # -- request dispatch (connection threads) --------------------------
    def dispatch(self, request: Dict[str, Any], stream) -> None:
        """Handle one parsed request, writing response line(s) to ``stream``."""
        self.counters["requests"] += 1
        op = request["op"]
        if op == "ping":
            protocol.write_message(stream, self._pong())
        elif op == "submit":
            self._handle_submit(request, stream)
        elif op == "status":
            protocol.write_message(stream, self._handle_status(request))
        elif op == "result":
            protocol.write_message(stream, self._handle_result(request))
        elif op == "cancel":
            record = self.queue.cancel(self._job_id_of(request))
            protocol.write_message(
                stream,
                {"ok": True, "event": "cancelled", "job_id": record.job_id,
                 "state": record.state},
            )
        elif op == "shutdown":
            drain = bool(request.get("drain", True))
            protocol.write_message(
                stream, {"ok": True, "event": "shutting-down", "drain": drain}
            )
            self.request_shutdown(drain=drain)

    def _pong(self) -> Dict[str, Any]:
        return {
            "ok": True,
            "event": "pong",
            "pid": os.getpid(),
            "protocol": protocol.PROTOCOL_VERSION,
            "uptime_s": time.time() - self.started_at,
        }

    @staticmethod
    def _job_id_of(request: Dict[str, Any]) -> str:
        job_id = request.get("job_id")
        if not isinstance(job_id, str) or not job_id:
            raise ServerError(f'{request["op"]} requires a string "job_id"')
        return job_id

    def _handle_status(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if "job_id" in request:
            record = self.queue.get(self._job_id_of(request))
            if record is None:
                raise ServerError(f"unknown job id {request['job_id']!r}")
            return {"ok": True, "event": "status", "job": record.to_dict()}
        group = request.get("group", "")
        if not isinstance(group, str):
            raise ServerError('status "group" must be a string')
        return {
            "ok": True,
            "event": "status",
            "pid": os.getpid(),
            "uptime_s": time.time() - self.started_at,
            "workers": self.config.workers,
            "queue": self.queue.snapshot(),
            "counters": dict(self.counters),
            "store": {
                "entries": len(self.store),
                "hits": self.store.stats.hits,
                "misses": self.store.stats.misses,
                "puts": self.store.stats.puts,
                "hit_rate": self.store.stats.hit_rate,
            },
            "pool": dataclasses.asdict(self.pool.stats),
            "designs": self.designs.snapshot(),
            "jobs": self.queue.jobs(limit=100 if group else 20, group=group),
        }

    def _handle_result(self, request: Dict[str, Any]) -> Dict[str, Any]:
        record = self.queue.get(self._job_id_of(request))
        if record is None:
            raise ServerError(f"unknown job id {request['job_id']!r}")
        if record.state not in TERMINAL_STATES:
            return {
                "ok": True,
                "event": "status",
                "job_id": record.job_id,
                "state": record.state,
            }
        if record.state == DONE:
            return {
                "ok": True,
                "event": "result",
                "job_id": record.job_id,
                "state": record.state,
                **(record.result or {}),
            }
        return protocol.error_response(
            ServerError(record.error or record.state),
            job_id=record.job_id,
            state=record.state,
        )

    # -- submit path ----------------------------------------------------
    def _handle_submit(self, request: Dict[str, Any], stream) -> None:
        record = self._build_record(request)
        warm = self._warm_probe(record)
        if warm is not None:
            self.counters["warm_hits"] += 1
            if trace.enabled():
                trace.counter("server.warm_hits").add(1)
            record.cached = True
            record.finish(DONE, result=warm)
            self.queue.remember(record)
            protocol.write_message(stream, record.publish("result", **warm))
            return

        streaming = bool(request.get("stream", True))
        subscriber = record.subscribe() if streaming else None
        try:
            position = self.queue.submit(record)
        except ServerBusy:
            if subscriber is not None:
                record.unsubscribe(subscriber)
            raise
        if trace.enabled():
            trace.gauge("server.queue_depth").set(self.queue.depth())
        record.publish(
            "queued",
            position=position,
            priority=record.priority,
            fingerprint=record.fingerprint,
        )
        if subscriber is None:
            protocol.write_message(
                stream,
                {"ok": True, "event": "queued", "job_id": record.job_id,
                 "state": QUEUED, "position": position,
                 "fingerprint": record.fingerprint},
            )
            return
        try:
            while True:
                event = subscriber.get()
                protocol.write_message(stream, event)
                if event["event"] in ("result", "error", "cancelled"):
                    return
        finally:
            record.unsubscribe(subscriber)

    def _build_record(self, request: Dict[str, Any]) -> JobRecord:
        """Validate a submit request and resolve its design, flow and keys.

        Both job kinds become a flow: a detect submit is the one-stage
        ``Flow([IncrementalDetectStage(config)])`` (carrying the base and
        the edit of a delta submit), so the warm probe and the scheduler
        run one code path, and the record's fingerprint is the flow's last
        stage key — for a detect, the key ``repro batch`` uses too.
        """
        kind = request.get("kind", "detect")
        if kind not in protocol.JOB_KINDS:
            raise ServerError(
                f"unknown job kind {kind!r}; expected one of "
                f"{protocol.JOB_KINDS}"
            )
        design = request.get("design")
        if not isinstance(design, str) or not design:
            raise ServerError('submit requires a string "design" path')
        priority = request.get("priority", DEFAULT_PRIORITY)
        label = request.get("label") or os.path.basename(design)
        group = request.get("group", "")
        if not isinstance(group, str):
            raise ServerError('submit "group" must be a string')
        netlist, design_fp = self.designs.get(design)

        delta_data = request.get("delta")
        if delta_data is not None and kind != "detect":
            raise ServerError('"delta" submits must have kind "detect"')

        if kind == "detect":
            config_data = request.get("config", {})
            if not isinstance(config_data, dict):
                raise ServerError('submit "config" must be a JSON object')
            config = config_from_dict(config_data)
            delta = None
            base_netlist = None
            if delta_data is not None:
                # Delta submit: "design" is the (usually warm) base; the
                # edited netlist is reconstructed daemon-side so the client
                # ships a few KB of JSON instead of the whole design.
                from repro.incremental import NetlistDelta, apply_delta

                if not isinstance(delta_data, dict):
                    raise ServerError('submit "delta" must be a JSON object')
                base_netlist = netlist
                try:
                    delta = NetlistDelta.from_dict(delta_data)
                    netlist = apply_delta(base_netlist, delta)
                except ReproError as error:
                    raise ServerError(f"bad delta payload: {error}") from error
                design_fp = fingerprint_netlist(netlist)
            stage = IncrementalDetectStage(config)
            stage.base, stage.delta = base_netlist, delta
            stages = [stage]
        else:
            stages_data = request.get("stages")
            if not isinstance(stages_data, list) or not stages_data:
                raise ServerError('flow submit requires a non-empty "stages" list')
            stages = [stage_from_entry(entry) for entry in stages_data]
        flow = Flow(stages, name=request.get("label", kind))
        fingerprints = flow.fingerprints(design_fp)
        record = JobRecord(
            kind=kind,
            priority=priority,
            request=request,
            label=label,
            fingerprint=fingerprints[-1],
            group=group,
        )
        record.context = (netlist, flow, fingerprints)
        return record

    def _warm_probe(self, record: JobRecord) -> Optional[Dict[str, Any]]:
        """Answer a submit straight from the store when every row is warm.

        This is the daemon's fast path: no queueing, no scheduling, no
        process wake-up — a warm repeat request costs one SQLite
        primary-key lookup per stage plus JSON decode.
        """
        began = trace.clock()
        netlist, flow, fingerprints = record.context
        if not flow.deterministic:
            return None
        if not all(fp in self.store for fp in fingerprints):
            return None
        # Lookups only: a row that is stale (schema or codec skew, or
        # evicted since the check above) is demoted and the job takes the
        # queued path, with its pool, backpressure and cancel.
        outcome = flow.run_cached(netlist, self.store)
        if outcome is None:
            logger.info("warm probe for %s found a stale row", record.label)
            return None
        payload = self._response(record, outcome, trace.clock() - began)
        if trace.enabled():
            trace.histogram("server.warm_s").observe(payload["runtime_seconds"])
        return payload

    def _response(
        self, record: JobRecord, outcome, runtime_seconds: float
    ) -> Dict[str, Any]:
        """The result fields of one answered submit (the only part of the
        submit path that depends on the job kind)."""
        payload = {
            "fingerprint": record.fingerprint,
            "cached": outcome.all_cached,
            "runtime_seconds": runtime_seconds,
        }
        if record.kind != "detect":
            payload["stages"] = [result.to_row() for result in outcome.results]
            return payload
        (result,) = outcome.results
        payload["report"] = report_to_dict(result.artifact)
        payload["attempts"] = 0 if result.cached else 1
        if not result.cached:
            # A computed detect reports the finder's own time, and how much
            # of a prior run it reused.
            _, flow, _ = record.context
            payload["runtime_seconds"] = result.artifact.runtime_seconds
            payload["incremental"] = (
                flow.stages[0].incremental_result(result).provenance()
            )
        return payload

    # -- scheduler (one thread) -----------------------------------------
    def _scheduler_loop(self) -> None:
        while True:
            record = self.queue.next_job()
            if record is None:
                return
            if record.state != QUEUED:  # cancelled in the dispatch race
                continue
            record.state = RUNNING
            record.started_at = time.time()
            wait_s = record.started_at - record.created_at
            if trace.enabled():
                trace.histogram(f"server.wait_s.{record.priority}").observe(wait_s)
                trace.gauge("server.queue_depth").set(self.queue.depth())
            record.publish("started", wait_s=wait_s)
            with trace.span(
                "server.job",
                kind=record.kind,
                priority=record.priority,
                label=record.label,
                fingerprint=record.fingerprint[:12],
            ) as job_span:
                try:
                    payload = self._execute(record)
                except ReproError as error:
                    self._finish_failed(record, str(error))
                    job_span.set(outcome="failed")
                except Exception as error:  # never kill the scheduler
                    logger.exception("job %s crashed", record.job_id)
                    self._finish_failed(
                        record, f"{type(error).__name__}: {error}"
                    )
                    job_span.set(outcome="failed")
                else:
                    record.finish(DONE, result=payload)
                    self.counters["done"] += 1
                    if trace.enabled():
                        trace.counter(f"server.done.{record.priority}").add(1)
                    job_span.set(outcome="done", cache="hit" if record.cached
                                 else "run")
                    record.publish("result", **payload)

    def _finish_failed(self, record: JobRecord, error: str) -> None:
        record.finish(FAILED, error=error)
        self.counters["failed"] += 1
        if trace.enabled():
            trace.counter("server.failed").add(1)
        record.publish("error", error=error)

    def _execute(self, record: JobRecord) -> Dict[str, Any]:
        """Run a queued job's flow against the shared pool and store.

        Detect flows compute a miss through the incremental engine: every
        deterministic detection persists its seed trace and advances the
        per-config head pointer, so a later delta submit (or a plain submit
        of an edited design) is answered by patching instead of
        recomputing.
        """
        netlist, flow, _ = record.context
        progress = None
        if record.kind != "detect":  # a detect streams queued/started/result only
            def progress(result) -> None:
                record.publish(
                    "progress",
                    stage=result.stage,
                    cache=result.cache_label,
                    runtime_seconds=result.runtime_seconds,
                )
        outcome = flow.run(
            netlist, store=self.store, pool=self.pool, progress=progress
        )
        record.cached = outcome.all_cached
        return self._response(record, outcome, outcome.runtime_seconds)


__all__ = ["DEFAULT_SOCKET", "DesignCache", "ServerConfig", "ServerDaemon"]
