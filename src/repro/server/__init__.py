"""repro.server — the long-lived detection daemon and its client.

One warm daemon (:class:`~repro.server.daemon.ServerDaemon`) owns the
worker pool, the result store and an LRU of loaded designs, and serves
detect/flow jobs over a local Unix socket: a bounded priority queue with
explicit backpressure, starvation-free scheduling, streamed JSONL
lifecycle events and graceful drain on shutdown.  Talk to it with
:class:`~repro.server.client.Client` or the ``repro serve`` / ``repro
submit`` / ``repro status`` CLI; :class:`~repro.server.client.DaemonRunner`
runs a batch or sweep plan on it (``repro sweep --via-daemon``).
"""

from repro.server.client import Client, DaemonRunner
from repro.server.daemon import (
    DEFAULT_SOCKET,
    DesignCache,
    ServerConfig,
    ServerDaemon,
)
from repro.server.queue import (
    DEFAULT_PRIORITY,
    PRIORITIES,
    JobQueue,
    JobRecord,
)

__all__ = [
    "Client",
    "DaemonRunner",
    "DEFAULT_PRIORITY",
    "DEFAULT_SOCKET",
    "DesignCache",
    "JobQueue",
    "JobRecord",
    "PRIORITIES",
    "ServerConfig",
    "ServerDaemon",
]
