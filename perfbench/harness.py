"""Process, timing and checking plumbing shared by the workloads.

The untraced runs drive the daemon the way a user does: ``python -m
repro.cli serve`` in a child process, talked to through
:class:`repro.server.Client`.  The traced runs host the same daemon
in-process (:class:`repro.server.ServerDaemon`) so its spans land in the
benchmark's tracer.  Both expose ``socket_path`` and ``stop()``.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.errors import ReproError
from repro.server import Client, ServerConfig, ServerDaemon

#: Scratch space of a run, relative to the checkout root.
WORK_ROOT = ".perfbench-work"

#: How long a daemon may take to bind its socket.
START_TIMEOUT_S = 60.0

clock = time.perf_counter


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _comparable(report: Any) -> Optional[Dict[str, Any]]:
    """A report dict without its one legitimately varying field."""
    if not isinstance(report, dict):
        return None
    return {k: v for k, v in report.items() if k != "runtime_seconds"}


def same_report(got: Any, want: Any) -> bool:
    return _comparable(got) is not None and _comparable(got) == _comparable(want)


@dataclass
class Tally:
    """Ops attempted and failed; a wrong answer is a failed op."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(what)


class WorkDir:
    """A fresh directory under :data:`WORK_ROOT`, removed on :meth:`close`."""

    def __init__(self, root: str, name: str) -> None:
        self.path = os.path.join(root, WORK_ROOT, f"{os.getpid()}-{name}")
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)

    def sub(self, name: str) -> str:
        path = os.path.join(self.path, name)
        os.makedirs(path, exist_ok=True)
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.path))
        except OSError:
            pass  # another run's directory is still there


def _status_kib(pid: int, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _descendants(pid: int) -> List[int]:
    found: List[int] = []
    stack = [pid]
    while stack:
        parent = stack.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{parent}/task/{task}/children") as handle:
                    children = [int(c) for c in handle.read().split()]
            except OSError:
                continue
            found.extend(children)
            stack.extend(children)
    return found


def peak_rss_mib(pid: int) -> float:
    """Sum of the peak resident sets of ``pid`` and its descendants."""
    return sum(_status_kib(p, "VmHWM") for p in [pid] + _descendants(pid)) / 1024.0


class DaemonProcess:
    """``python -m repro.cli serve`` in a child process.

    Start-up waits for the daemon's own "listening" log line, read from
    its stderr by a thread that keeps draining the pipe afterwards.
    """

    def __init__(
        self, root: str, socket_path: str, cache_dir: str, max_designs: int
    ) -> None:
        self.socket_path = socket_path
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self._ready = threading.Event()
        self._log: List[str] = []
        self._proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "--log-level", "INFO",
                "serve", "--socket", socket_path, "--workers", "1",
                "--cache-dir", cache_dir, "--max-designs", str(max_designs),
            ],
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        if not self._ready.wait(START_TIMEOUT_S) or self._proc.poll() is not None:
            self.stop()
            raise RuntimeError(
                "daemon did not start: " + " | ".join(self._log[-5:])
            )

    def _drain(self) -> None:
        for line in self._proc.stderr:
            if not self._ready.is_set():
                self._log.append(line.strip())
                if "listening on" in line:
                    self._ready.set()
        self._ready.set()  # EOF: the process is gone; unblock the waiter

    def peak_rss_mib(self) -> float:
        return peak_rss_mib(self._proc.pid)

    def stop(self) -> None:
        if self._proc.poll() is None:
            try:
                Client(self.socket_path, timeout_s=10.0).shutdown(drain=True)
                self._proc.wait(timeout=60)
            except (ReproError, OSError, subprocess.TimeoutExpired):
                self._proc.kill()
                self._proc.wait()
        self._reader.join(timeout=10)


class InProcessDaemon:
    """The same daemon hosted on threads of this process."""

    def __init__(self, socket_path: str, cache_dir: str, max_designs: int) -> None:
        self.socket_path = socket_path
        self._daemon = ServerDaemon(
            ServerConfig(
                socket_path=socket_path,
                cache_dir=cache_dir,
                workers=1,
                max_designs=max_designs,
            )
        )
        self._daemon.start()

    def stop(self) -> None:
        self._daemon.shutdown(drain=True)


def start_daemon(
    root: str, workdir: WorkDir, tag: str, max_designs: int, in_process: bool
):
    """A fresh daemon with its own cache; the socket path stays relative
    (and short) because the checkout path may be long."""
    sock = os.path.relpath(os.path.join(workdir.path, f"{tag}.sock"), root)
    cache = workdir.sub(f"{tag}-cache")
    if in_process:
        return InProcessDaemon(sock, cache, max_designs)
    return DaemonProcess(root, sock, cache, max_designs)


def parallel_map(fn: Callable, items: Iterable, processes: int = 2) -> List[Any]:
    """``fn`` over ``items`` in spawned worker processes, all joined on exit.

    ``fn`` must be importable by name and ``items`` small: they are
    pickled to the workers.
    """
    context = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=processes, mp_context=context
    ) as pool:
        return list(pool.map(fn, items))
