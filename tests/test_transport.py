"""Worker-pool transport: designs reach workers as mapped pack files.

A design loaded from a live pack file ships that file's path; any other
design is serialized once into a pool-owned anonymous file.  Both must
produce reports bit-identical to a serial run on either kernel backend,
ship a few hundred bytes per primed worker, and leave nothing behind.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cli import main
from repro.errors import ServiceError
from repro.finder import FinderConfig, TangledLogicFinder, find_tangled_logic
from repro.generators.random_gtl import planted_gtl_graph
from repro.io.binfmt import load_packed, serialize_netlist, write_packed
from repro.io.hgr import write_hgr
from repro.netlist.backend import forced_backend
from repro.obs import trace
from repro.obs.report import RunReport
from repro.service import pool as pool_module
from repro.service.fingerprint import fingerprint_netlist
from repro.service.pool import _MISSING_CONTEXT, WorkerPool, _worker_run_batch

CFG = FinderConfig(num_seeds=8, seed=3)
CFG2 = FinderConfig(num_seeds=8, seed=3)


@pytest.fixture(scope="module")
def design():
    netlist, _ = planted_gtl_graph(900, [70], seed=9)
    return netlist


@pytest.fixture(scope="module")
def serial_report(design):
    return find_tangled_logic(design, CFG)


@pytest.fixture
def packed(design, tmp_path):
    path = str(tmp_path / "design.nla")
    write_packed(design, path)
    return load_packed(path)


def _same_report(a, b):
    return (
        a.gtls == b.gtls
        and a.rent_exponent == b.rent_exponent
        and a.num_orderings == b.num_orderings
        and a.num_candidates == b.num_candidates
    )


def _open_inodes():
    """``(device, inode)`` of every file this process holds open."""
    inodes = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            stat = os.stat(f"/proc/self/fd/{fd}")
        except OSError:  # the listing's own descriptor, already closed
            continue
        inodes.add((stat.st_dev, stat.st_ino))
    return inodes


def _shm_listing():
    return sorted(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else []


# ---------------------------------------------------------------- parity
def test_file_transport_matches_serial(packed, serial_report):
    with WorkerPool(2) as pool:
        report = TangledLogicFinder(packed, CFG2).run(pool=pool)
        assert _same_report(report, serial_report)
        # Workers mmap the pack file itself: nothing serialized, tiny path.
        assert pool._blobs == {}
        assert pool.stats.context_shipments >= 1
        per_batch = pool.stats.context_bytes / pool.stats.context_shipments
        assert per_batch < 4096


def test_blob_transport_matches_serial(design, serial_report):
    with WorkerPool(2) as pool:
        report = TangledLogicFinder(design, CFG2).run(pool=pool)
        assert _same_report(report, serial_report)
        # A builder-made design is serialized once, into one pool-owned file.
        assert list(pool._blobs) == [fingerprint_netlist(design)]
        per_batch = pool.stats.context_bytes / pool.stats.context_shipments
        assert per_batch < 4096
    assert pool._blobs == {}


def test_scalar_backend_ships_pack_files(design, packed, serial_report):
    with forced_backend("python"):
        assert _same_report(find_tangled_logic(design, CFG), serial_report)
        for netlist in (design, packed):
            with WorkerPool(2) as pool:
                report = TangledLogicFinder(netlist, CFG2).run(pool=pool)
            assert _same_report(report, serial_report)


# ---------------------------------------------------------------- keying
def test_contexts_are_keyed_by_design_not_job(packed, serial_report):
    """k configs over one design ship it at most once per worker, plus one
    re-send per batch that bounced off a worker the first run missed."""
    configs = [CFG2.with_overrides(lambda_skip=skip) for skip in (0, 5, 10, 20)]
    with WorkerPool(2) as pool:
        reports = [TangledLogicFinder(packed, c).run(pool=pool) for c in configs]
        stats = pool.stats
        assert stats.context_shipments <= pool.workers + stats.context_misses
    assert _same_report(reports[-1], serial_report)  # lambda_skip=20: CFG
    for config, report in zip(configs, reports):
        assert _same_report(report, find_tangled_logic(packed, config))


class _UnprimedExecutor:
    """Stand-in executor: the batch holding job 0 blocks until a batch with
    the design's path has run; every other batch misses without a path."""

    def __init__(self):
        self.events = []
        self.primed = threading.Event()
        self.threads = ThreadPoolExecutor(max_workers=4)

    def submit(self, fn, key, config, chunk, path, traced):
        first = chunk[0][0]
        self.events.append(("submit", first, path is not None))

        def run():
            if first == 0:
                self.primed.wait(10)
                self.events.append(("done", 0))
            elif path is None:
                return _MISSING_CONTEXT
            else:
                self.primed.set()
            return [(index, ("outcome", index)) for index, _ in chunk]

        return self.threads.submit(run)

    def shutdown(self, wait=True, cancel_futures=False):
        self.threads.shutdown(wait=wait, cancel_futures=cancel_futures)


def test_missed_batch_is_resent_beside_the_running_ones(packed):
    """A batch bounced by an unprimed worker goes back out with the path as
    soon as the miss returns, not after the run's other batches finish."""
    key = fingerprint_netlist(packed)
    pool = WorkerPool(2)
    fake = pool._executor = _UnprimedExecutor()
    pool._shipped_keys.add(key)
    try:
        outcomes = pool.run_seed_jobs(packed, CFG, [(1, 1), (2, 2)])
    finally:
        pool.shutdown()
    assert outcomes == [("outcome", 0), ("outcome", 1)]
    assert fake.events == [
        ("submit", 0, False), ("submit", 1, False), ("submit", 1, True),
        ("done", 0),
    ]
    assert (pool.stats.context_misses, pool.stats.context_shipments) == (1, 1)


def test_file_transport_requires_live_matching_file(design, packed, tmp_path):
    key = fingerprint_netlist(design)
    pool = WorkerPool(2)
    assert pool._design_path(packed, key) == packed.source
    # Replace the file with a different design: fingerprint mismatch, so the
    # pool falls back to serializing the (still mapped) design itself.
    other, _ = planted_gtl_graph(120, [30], seed=1)
    write_packed(other, str(tmp_path / "other.nla"))
    os.replace(str(tmp_path / "other.nla"), packed.source)
    assert pool._design_path(packed, key).startswith(f"/proc/{os.getpid()}/fd/")
    os.remove(packed.source)
    assert pool._design_path(packed, key).startswith("/proc/")
    # Eager (parsed) netlists always travel through a pool-owned file.
    assert pool._design_path(design, key).startswith("/proc/")
    assert len(pool._blobs) == 1  # one design, one file
    pool.shutdown()
    assert pool._blobs == {}


def test_blob_falls_back_to_the_temp_dir(design, serial_report, tmp_path, monkeypatch):
    monkeypatch.setattr(pool_module, "_BLOB_DIR", str(tmp_path / "missing"))
    with WorkerPool(2) as pool:
        report = TangledLogicFinder(design, CFG2).run(pool=pool)
        assert len(pool._blobs) == 1
    assert _same_report(report, serial_report)


def test_pack_file_replaced_under_the_pool_raises(packed, tmp_path, monkeypatch):
    """A file swapped between the parent's header check and the worker's
    load is caught by the worker, not detected on."""
    key = fingerprint_netlist(packed)
    monkeypatch.setattr(pool_module, "packed_fingerprint", lambda path: key)
    other, _ = planted_gtl_graph(120, [30], seed=1)
    write_packed(other, str(tmp_path / "other.nla"))
    os.replace(str(tmp_path / "other.nla"), packed.source)
    with WorkerPool(2) as pool:
        with pytest.raises(ServiceError, match="changed under the pool"):
            TangledLogicFinder(packed, CFG2).run(pool=pool)


# ---------------------------------------------------------------- lifecycle
def test_blob_files_closed_on_shutdown(design, serial_report):
    shm_before = _shm_listing()
    pool = WorkerPool(2)
    report = TangledLogicFinder(design, CFG2).run(pool=pool)
    assert _same_report(report, serial_report)
    (blob,) = pool._blobs.values()
    stat = os.fstat(blob.fileno())
    inode = (stat.st_dev, stat.st_ino)
    assert inode in _open_inodes()
    # The blob is anonymous: it never appears in the directory listing.
    assert _shm_listing() == shm_before
    pool.shutdown()
    assert pool._blobs == {} and blob.closed
    assert inode not in _open_inodes()
    assert _shm_listing() == shm_before


def test_worker_installs_and_evicts_descriptors(design):
    """Drive the worker-side protocol in-process on a pool-owned blob."""
    key = fingerprint_netlist(design)
    pool = WorkerPool(2)
    saved = dict(pool_module._WORKER_CONTEXTS)
    pool_module._WORKER_CONTEXTS.clear()
    try:
        path = pool._design_path(design, key)
        assert _worker_run_batch(key, CFG, []) == _MISSING_CONTEXT
        assert _worker_run_batch(key, CFG, [], path=path) == []
        installed = pool_module._WORKER_CONTEXTS[key]
        assert installed == design
        # A primed design is not reloaded when a path comes along again.
        assert _worker_run_batch(key, CFG, [], path=path) == []
        assert pool_module._WORKER_CONTEXTS[key] is installed
        # Flood the memo: the design is evicted, dropping its mapping.
        for index in range(pool_module._WORKER_CONTEXT_LIMIT):
            other, _ = planted_gtl_graph(60, [12], seed=100 + index)
            other_key = fingerprint_netlist(other)
            other_path = pool._design_path(other, other_key)
            assert _worker_run_batch(other_key, CFG, [], path=other_path) == []
        assert key not in pool_module._WORKER_CONTEXTS
    finally:
        pool_module._WORKER_CONTEXTS.clear()
        pool_module._WORKER_CONTEXTS.update(saved)
        pool.shutdown()


# ---------------------------------------------------------------- telemetry
def test_transport_counters_surface_in_run_report(design):
    trace.enable()
    try:
        with trace.span("test.root"), WorkerPool(2) as pool:
            TangledLogicFinder(design, CFG2).run(pool=pool)
        report = RunReport.from_tracer()
    finally:
        trace.disable()
    counters = report.counters()
    assert counters.get("pool.blob_files") == 1
    assert counters.get("pool.blob_bytes") == len(serialize_netlist(design))
    shipments = counters.get("pool.context_shipments")
    assert shipments >= 1
    assert 0 < counters.get("pool.context_bytes") / shipments < 4096
    tasks = [span for span in report.spans if span["name"] == "pool.task"]
    assert tasks
    assert all(span["attrs"].get("maxrss_kb", 0) > 0 for span in tasks)


# ---------------------------------------------------------------- CLI
def test_cli_pack_and_detect_from_packed(tmp_path, capsys, design):
    source = str(tmp_path / "design.hgr")
    write_hgr(design, source)
    packed = str(tmp_path / "design.nla")
    assert main(["pack", source, "--out", packed]) == 0
    out = capsys.readouterr().out
    assert "fingerprint:" in out
    assert os.path.exists(packed)

    membership_a = str(tmp_path / "a.txt")
    membership_b = str(tmp_path / "b.txt")
    assert main([
        "detect", source, "--seeds", "6", "--seed", "3", "--no-cache",
        "--out", membership_a,
    ]) == 0
    assert main([
        "detect", packed, "--seeds", "6", "--seed", "3", "--no-cache",
        "--out", membership_b,
    ]) == 0
    with open(membership_a) as a, open(membership_b) as b:
        assert a.read() == b.read()


def test_cli_pack_default_output_path(tmp_path, capsys, design):
    source = str(tmp_path / "design.hgr")
    write_hgr(design, source)
    assert main(["pack", source]) == 0
    assert os.path.exists(str(tmp_path / "design.nla"))


# ----------------------------------------------------------------------
# Idle worker death: lazy respawn instead of a failed next task
# ----------------------------------------------------------------------
def test_pool_respawns_after_idle_worker_death(design, serial_report):
    """A worker killed BETWEEN jobs is replaced lazily on the next run.

    This is the daemon scenario: the pool sits warm for hours and a worker
    gets OOM-killed while idle.  The next submitted job must transparently
    rebuild the executor — not fail — and the rebuild must be recorded as a
    respawn, never as a retry-consuming restart.
    """
    import os
    import signal
    import time

    with WorkerPool(2) as pool:
        first = TangledLogicFinder(design, CFG2).run(pool=pool)
        assert _same_report(first, serial_report)
        assert pool.stats.respawns == 0

        processes = dict(pool._executor._processes)
        victim = next(iter(processes.values()))
        os.kill(victim.pid, signal.SIGKILL)
        deadline = time.monotonic() + 10
        while victim.is_alive() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not victim.is_alive()

        second = TangledLogicFinder(design, CFG2).run(pool=pool)
        assert _same_report(second, serial_report)
        assert pool.stats.respawns == 1
        assert pool.stats.restarts == 0  # never billed against max_retries


def test_pool_workers_dead_is_false_for_healthy_pool(design):
    with WorkerPool(2) as pool:
        assert pool._workers_dead() is False  # no executor yet
        TangledLogicFinder(design, CFG2).run(pool=pool)
        assert pool._workers_dead() is False  # live workers
    assert pool._workers_dead() is False  # shut down: nothing to respawn
