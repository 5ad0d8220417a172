"""Tests of the detection daemon (:mod:`repro.server`).

Three layers:

* the :class:`~repro.server.queue.JobQueue` scheduling semantics —
  backpressure, priority ordering, starvation freedom, cancellation and
  drain — exercised directly (deterministic, no sockets);
* packing a corpus ahead of time into a cache dir's design packs
  (:mod:`repro.service.designs`) and the daemon's design LRU over them;
* the live daemon over a real Unix socket: cold/warm submits, report
  parity with the offline :class:`~repro.service.jobs.BatchRunner`,
  status/cancel/shutdown, and the CLI subcommands against it.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.cli import main
from repro.errors import ServerBusy, ServerError, ServiceError
from repro.finder import FinderConfig, find_tangled_logic
from repro.generators.random_gtl import planted_gtl_graph
from repro.io import read_header
from repro.io.hgr import write_hgr
from repro.server import Client, JobQueue, JobRecord, ServerConfig, ServerDaemon
from repro.service.manifest import manifest_designs
from repro.server.daemon import DesignCache
from repro.server.queue import CANCELLED, DONE, RETRY_AFTER_S
from repro.service import ResultStore, designs
from repro.service.codec import report_from_dict, report_to_dict
from repro.service.fingerprint import fingerprint_netlist

CFG = {"num_seeds": 6, "seed": 3}


def _job(priority="batch", label=""):
    return JobRecord(kind="detect", priority=priority, request={}, label=label)


# ----------------------------------------------------------------------
# JobQueue semantics
# ----------------------------------------------------------------------
def test_queue_fifo_within_class():
    queue = JobQueue()
    first, second = _job(label="a"), _job(label="b")
    assert queue.submit(first) == 1
    assert queue.submit(second) == 2
    assert queue.next_job() is first
    assert queue.next_job() is second


def test_queue_backpressure_rejects_with_retry_after():
    queue = JobQueue(max_depth=2)
    queue.submit(_job())
    queue.submit(_job())
    with pytest.raises(ServerBusy) as excinfo:
        queue.submit(_job())
    assert excinfo.value.retry_after_s > RETRY_AFTER_S  # scaled by the backlog
    assert queue.rejected == 1
    assert queue.depth() == 2  # the rejected job was never admitted


def test_queue_priority_ordering_under_load():
    queue = JobQueue()
    sweep = _job("sweep")
    batch = _job("batch")
    interactive = _job("interactive")
    queue.submit(sweep)
    queue.submit(batch)
    queue.submit(interactive)
    order = [queue.next_job().priority for _ in range(3)]
    assert order == ["interactive", "batch", "sweep"]


def test_queue_starvation_freedom():
    """A sweep under sustained interactive load is served within the limit."""
    queue = JobQueue(starvation_limit=2)
    queue.submit(_job("sweep"))
    for _ in range(6):
        queue.submit(_job("interactive"))
    order = [queue.next_job().priority for _ in range(7)]
    # Two interactive dispatches skip the sweep; the third serves it.
    assert order[:3] == ["interactive", "interactive", "sweep"]
    assert order[3:] == ["interactive"] * 4


def test_queue_cancel_queued_job():
    queue = JobQueue()
    record = _job()
    queue.submit(record)
    cancelled = queue.cancel(record.job_id)
    assert cancelled.state == CANCELLED
    assert queue.depth() == 0
    assert queue.cancelled == 1
    # Still queryable after cancellation.
    assert queue.get(record.job_id) is record


def test_record_finish_releases_its_design():
    queue = JobQueue()
    record = _job()
    record.context = ("netlist", "flow", ["fingerprint"])
    queue.submit(record)
    queue.cancel(record.job_id)
    assert record.context is None


def test_queue_cancel_rejects_non_queued():
    queue = JobQueue()
    record = _job()
    queue.submit(record)
    queue.next_job()
    record.state = "running"
    with pytest.raises(ServerError, match="only queued"):
        queue.cancel(record.job_id)
    with pytest.raises(ServerError, match="unknown job id"):
        queue.cancel("nope")


def test_queue_close_drain_serves_backlog():
    queue = JobQueue()
    first, second = _job(), _job()
    queue.submit(first)
    queue.submit(second)
    assert queue.close(drain=True) == []
    assert queue.next_job() is first
    assert queue.next_job() is second
    assert queue.next_job() is None  # closed + empty
    with pytest.raises(ServerError, match="shutting down"):
        queue.submit(_job())


def test_queue_close_without_drain_cancels_backlog():
    queue = JobQueue()
    record = _job()
    queue.submit(record)
    dropped = queue.close(drain=False)
    assert dropped == [record]
    assert record.state == CANCELLED
    assert queue.next_job() is None


def test_queue_next_job_timeout():
    queue = JobQueue()
    assert queue.next_job(timeout=0.05) is None


def test_queue_close_wakes_blocked_scheduler():
    queue = JobQueue()
    seen = []
    thread = threading.Thread(target=lambda: seen.append(queue.next_job()))
    thread.start()
    time.sleep(0.1)
    queue.close(drain=True)
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert seen == [None]


def test_record_subscribe_replays_history():
    record = _job()
    record.publish("queued", position=1)
    subscriber = record.subscribe()  # late subscriber
    record.publish("started")
    events = [subscriber.get(timeout=1)["event"] for _ in range(2)]
    assert events == ["queued", "started"]
    record.unsubscribe(subscriber)
    record.publish("result")
    assert subscriber.empty()


def test_queue_history_evicts_only_terminal_records():
    queue = JobQueue(history=2)
    live = _job()
    queue.submit(live)
    done = []
    for _ in range(3):
        record = _job()
        queue.submit(record)
        queue.cancel(record.job_id)
        done.append(record)
    assert queue.get(live.job_id) is live  # live jobs never evicted
    assert queue.get(done[0].job_id) is None  # oldest terminal dropped
    assert queue.get(done[-1].job_id) is done[-1]


# ----------------------------------------------------------------------
# Pack-ahead corpus + design LRU
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Two small designs on disk plus their netlists."""
    from repro.io import load_design

    root = tmp_path_factory.mktemp("corpus")
    designs = {}
    for name, seed in (("a", 3), ("b", 4)):
        netlist, _ = planted_gtl_graph(300, [40], seed=seed)
        path = str(root / f"{name}.hgr")
        write_hgr(netlist, path)
        # Reload: .hgr keeps topology only, so the on-disk content (the
        # daemon's view) fingerprints differently from the generator's.
        designs[name] = (path, load_design(path))
    return designs


def test_manifest_dialects(tmp_path):
    base = str(tmp_path)
    expected = [os.path.join(base, "a.hgr")]
    assert manifest_designs({"designs": ["a.hgr"]}, base) == expected
    assert manifest_designs(
        {"jobs": [{"design": "a.hgr"}, {"design": "a.hgr"}]}, base
    ) == expected  # deduplicated
    assert manifest_designs(["a.hgr"], base) == expected
    # A flow manifest's single "design", as `flow run` accepts it.
    assert manifest_designs(
        {"design": "a.hgr", "stages": [{"stage": "detect"}]}, base
    ) == expected
    with pytest.raises(ServiceError):
        manifest_designs({"nope": []}, base)
    with pytest.raises(ServiceError):
        manifest_designs({"designs": []}, base)
    # A jobs entry that is not an object is an error, as in `batch`.
    with pytest.raises(ServiceError, match=r'job #1 must be an object'):
        manifest_designs({"jobs": [{"design": "a.hgr"}, "b.hgr"]}, base)


def test_pack_corpus_is_idempotent(corpus, tmp_path):
    paths = [corpus["a"][0], corpus["b"][0]]
    with ResultStore(str(tmp_path / "cache")) as store:
        first = [designs.pack_source(store, path) for path in paths]
        assert [packed for _, packed in first] == [True, True]
        second = [designs.pack_source(store, path) for path in paths]
        assert second == [(fp, False) for fp, _ in first]
        for (fingerprint, _), name in zip(first, ("a", "b")):
            assert fingerprint == fingerprint_netlist(corpus[name][1])
            path = designs.pack_path(store, fingerprint)
            assert read_header(path).fingerprint == fingerprint
        assert store.kind_counts()[designs.KIND_DESIGN_SOURCE] == 2


def test_pack_corpus_repacks_touched_source(corpus, tmp_path):
    path, _ = corpus["a"]
    with ResultStore(str(tmp_path / "cache")) as store:
        designs.pack_source(store, path)
        os.utime(path, ns=(1, 1))  # stat changes, content does not
        assert designs.pack_source(store, path)[1] is True
        assert designs.pack_source(store, path)[1] is False


def test_pack_corpus_repacks_packs_of_an_older_format(corpus, tmp_path):
    """A pack an older build wrote (another format version) is packed
    afresh, not reused under its stale source row."""
    import struct

    path, netlist = corpus["a"]
    with ResultStore(str(tmp_path / "cache")) as store:
        fingerprint, _ = designs.pack_source(store, path)
        pack = designs.pack_path(store, fingerprint)
        with open(pack, "r+b") as handle:
            handle.seek(8)
            handle.write(struct.pack("<I", 1))
        assert designs.pack_source(store, path) == (fingerprint, True)
        assert read_header(pack).fingerprint == fingerprint_netlist(netlist)


def test_malformed_design_source_row_reads_as_a_miss(corpus, tmp_path):
    """A ``design_source`` row of the wrong shape is dropped; the design
    parses and ``pack`` records a sound row again."""
    path, netlist = corpus["a"]
    with ResultStore(str(tmp_path / "cache")) as store:
        designs.pack_source(store, path)
        store.put_payload(
            f"source-{os.path.abspath(path)}", {"fingerprint": 7},
            kind=designs.KIND_DESIGN_SOURCE,
        )
        cache = DesignCache(store=store)
        loaded, fingerprint = cache.get(path)
        assert cache.stats.pack_loads == 0 and cache.stats.misses == 1
        assert fingerprint == fingerprint_netlist(netlist)
        assert designs.KIND_DESIGN_SOURCE not in store.kind_counts()
        assert designs.pack_source(store, path) == (fingerprint, True)


def test_design_cache_lru_and_stat_invalidation(corpus):
    cache = DesignCache(max_designs=1)
    path_a, netlist_a = corpus["a"]
    path_b, _ = corpus["b"]
    loaded, fingerprint = cache.get(path_a)
    assert fingerprint == fingerprint_netlist(netlist_a)
    assert cache.get(path_a)[0] is loaded  # hit: same object
    cache.get(path_b)  # evicts a (max_designs=1)
    assert len(cache) == 1
    cache.get(path_a)
    assert cache.stats.hits == 1 and cache.stats.misses == 3

    os.utime(path_a, ns=(2, 2))
    reloaded, _ = cache.get(path_a)
    assert reloaded is not loaded
    assert cache.stats.reloads == 1


def test_design_cache_serves_from_store_packs(corpus, tmp_path):
    path, netlist = corpus["a"]
    with ResultStore(str(tmp_path / "cache")) as store:
        fingerprint, _ = designs.pack_source(store, path)
        cache = DesignCache(store=store)
        loaded, served_fp = cache.get(path)
        assert cache.stats.pack_loads == 1
        assert served_fp == fingerprint == fingerprint_netlist(netlist)
        assert loaded.num_cells == netlist.num_cells
        # A touched source parses; it is never served from the stale pack.
        os.utime(path, ns=(3, 3))
        cache.get(path)
        assert cache.stats.pack_loads == 1 and cache.stats.reloads == 1
        # A .nla path loads as itself, with no store lookup.
        lookups = store.stats.lookups
        cache.get(designs.pack_path(store, fingerprint))
        assert store.stats.lookups == lookups and cache.stats.pack_loads == 1


def test_design_cache_missing_file():
    cache = DesignCache()
    with pytest.raises(ServerError, match="cannot stat"):
        cache.get("/nonexistent/design.hgr")


# ----------------------------------------------------------------------
# Live daemon over a real socket
# ----------------------------------------------------------------------
@pytest.fixture()
def daemon_factory(tmp_path):
    """Start daemons on per-test sockets; always shut them down."""
    started = []

    def start(**overrides):
        overrides.setdefault(
            "socket_path", str(tmp_path / f"d{len(started)}.sock")
        )
        overrides.setdefault("cache_dir", str(tmp_path / "cache"))
        start_scheduler = overrides.pop("start_scheduler", True)
        daemon = ServerDaemon(
            ServerConfig(**overrides), start_scheduler=start_scheduler
        )
        daemon.start()
        started.append(daemon)
        return daemon, Client(daemon.config.socket_path)

    yield start
    for daemon in started:
        daemon.shutdown(drain=False)


def test_daemon_ping_and_status(corpus, daemon_factory):
    daemon, client = daemon_factory()
    pong = client.ping()
    assert pong["event"] == "pong" and pong["pid"] == os.getpid()
    status = client.status()
    assert status["queue"]["depth"] == 0
    assert status["workers"] == 1


def test_daemon_cold_then_warm_bit_identical_and_fast(corpus, daemon_factory):
    daemon, client = daemon_factory()
    path, netlist = corpus["a"]
    cold = client.submit(path, config=CFG, priority="interactive")
    assert cold["event"] == "result" and cold["cached"] is False
    batches_after_cold = daemon.pool.stats.batches

    began = time.perf_counter()
    warm = client.submit(path, config=CFG)
    warm_seconds = time.perf_counter() - began
    assert warm["cached"] is True
    assert warm["report"] == cold["report"]  # bit-identical payloads
    assert warm_seconds < 0.05  # the acceptance bound: no spawn, no queue
    # The warm answer never touched the pool or the queue.
    assert daemon.pool.stats.batches == batches_after_cold
    assert daemon.counters["warm_hits"] == 1
    assert daemon.queue.submitted == 1

    # Identical to an offline run of the same job (modulo wall-clock).
    offline = find_tangled_logic(netlist, FinderConfig(**CFG))
    offline_dict = report_to_dict(offline)
    offline_dict.pop("runtime_seconds")
    cold_dict = dict(cold["report"])
    cold_dict.pop("runtime_seconds")
    assert offline_dict == cold_dict
    assert report_from_dict(warm["report"]).gtls == offline.gtls


def test_daemon_streams_lifecycle_events(corpus, daemon_factory):
    daemon, client = daemon_factory()
    events = []
    client.submit(corpus["a"][0], config=CFG, on_event=events.append)
    assert [e["event"] for e in events] == ["queued", "started", "result"]
    job_id = events[0]["job_id"]
    job = client.status(job_id)["job"]
    assert job["state"] == DONE
    # result op replays the terminal payload after the fact.
    replay = client.result(job_id)
    assert replay["event"] == "result" and "report" in replay


def test_every_entry_point_shares_one_detection_row(
    corpus, daemon_factory, tmp_path, capsys
):
    """Batch computes; a detect flow, a daemon submit and ``repro detect``
    then all hit that one row."""
    from repro.flow import DetectStage, Flow
    from repro.service import BatchRunner, DetectionJob, ResultStore

    path, netlist = corpus["a"]
    config = FinderConfig(**CFG)
    cache = str(tmp_path / "shared-cache")
    daemon, client = daemon_factory(cache_dir=cache)
    with ResultStore(cache) as store:
        with BatchRunner(store=store) as runner:
            (batch,) = runner.run([DetectionJob(netlist=netlist, config=config)])
        assert not batch.cached
        reports = [batch.report]
        (result,) = Flow([DetectStage(config)]).run(netlist, store=store).results
        assert result.cached
        reports.append(result.artifact)
        # One report row; the batch's miss also left its seed trace and
        # head pointer, as every computed detect does.
        counts = store.kind_counts()
        assert (counts["finder_report"], counts["finder_trace"]) == (1, 1)

    served = client.submit(path, config=CFG)
    assert served["cached"] is True
    assert served["fingerprint"] == batch.job.fingerprint
    reports.append(report_from_dict(served["report"]))
    assert daemon.queue.submitted == 0  # answered by the warm probe

    assert main(["detect", path, "--seeds", "6", "--seed", "3",
                 "--cache-dir", cache]) == 0
    out = capsys.readouterr().out
    assert "cached: exact fingerprint" in out
    assert batch.report.summary() in out
    assert all(report == batch.report for report in reports)


def test_daemon_stale_report_row_takes_the_queued_path(
    corpus, daemon_factory, tmp_path
):
    """A report row that no longer decodes is not recomputed by the warm
    probe on the connection thread: it is demoted and the job is queued."""
    from repro.service import ResultStore, job_fingerprint

    path, netlist = corpus["a"]
    config = FinderConfig(**CFG)
    stale = report_to_dict(find_tangled_logic(netlist, config))
    stale["version"] = -1  # an outdated report codec
    cache = str(tmp_path / "stale-cache")
    with ResultStore(cache) as store:
        store.put_payload(
            job_fingerprint(netlist, config), stale, kind="finder_report"
        )
    daemon, client = daemon_factory(cache_dir=cache)
    cold = client.submit(path, config=CFG)
    assert cold["cached"] is False
    assert daemon.counters["warm_hits"] == 0
    assert daemon.queue.submitted == 1
    warm = client.submit(path, config=CFG)  # the queued run rewrote the row
    assert warm["cached"] is True
    assert daemon.counters["warm_hits"] == 1


def test_daemon_flow_cold_then_warm(corpus, daemon_factory):
    daemon, client = daemon_factory()
    stages = [{"stage": "detect", "num_seeds": 6, "seed": 3}]
    cold = client.submit(corpus["a"][0], kind="flow", stages=stages)
    assert [s["cached"] for s in cold["stages"]] == [False]
    warm = client.submit(corpus["a"][0], kind="flow", stages=stages)
    assert warm["cached"] is True
    assert [s["fingerprint"] for s in warm["stages"]] == [
        s["fingerprint"] for s in cold["stages"]
    ]


def test_daemon_fails_a_raising_seed_and_serves_on(
    corpus, daemon_factory, monkeypatch
):
    """A seed that raises on a pool thread fails its job with a typed
    error; the daemon answers the next submit with the offline report."""
    from repro.service import pool as pool_module

    def broken_seed(*args):
        raise RuntimeError("injected seed failure")

    daemon, client = daemon_factory(workers=2)
    path, netlist = corpus["b"]
    monkeypatch.setattr(pool_module, "_process_seed", broken_seed)
    with pytest.raises(ServerError, match="RuntimeError: injected seed failure"):
        client.submit(path, config=CFG)
    assert daemon.counters["failed"] == 1
    monkeypatch.undo()

    answer = client.submit(path, config=CFG)
    assert answer["event"] == "result" and answer["cached"] is False
    offline = report_to_dict(find_tangled_logic(netlist, FinderConfig(**CFG)))
    assert {**answer["report"], "runtime_seconds": 0} == {
        **offline, "runtime_seconds": 0,
    }


def test_daemon_backpressure_rejection(corpus, daemon_factory):
    daemon, client = daemon_factory(max_queue_depth=1, start_scheduler=False)
    first = client.submit(
        corpus["a"][0], config={"num_seeds": 6, "seed": 11}, wait=False
    )
    assert first["event"] == "queued"
    with pytest.raises(ServerBusy) as excinfo:
        client.submit(
            corpus["a"][0], config={"num_seeds": 6, "seed": 12}, wait=False
        )
    assert excinfo.value.retry_after_s > 0
    assert daemon.queue.rejected == 1


def test_daemon_cancel_queued_job(corpus, daemon_factory):
    daemon, client = daemon_factory(start_scheduler=False)
    queued = client.submit(
        corpus["a"][0], config={"num_seeds": 6, "seed": 13}, wait=False
    )
    response = client.cancel(queued["job_id"])
    assert response["state"] == CANCELLED
    assert client.status(queued["job_id"])["job"]["state"] == CANCELLED
    with pytest.raises(ServerError):  # cancelled is terminal
        client.result(queued["job_id"])


def test_daemon_drain_completes_inflight_work(corpus, daemon_factory):
    daemon, client = daemon_factory()
    job_ids = [
        client.submit(
            corpus["a"][0], config={"num_seeds": 6, "seed": 20 + i},
            wait=False,
        )["job_id"]
        for i in range(3)
    ]
    client.shutdown(drain=True)
    assert daemon.wait_until_stopped(timeout=60)
    states = [daemon.queue.get(job_id).state for job_id in job_ids]
    assert states == [DONE, DONE, DONE]  # nothing dropped on the floor


def test_daemon_shutdown_without_drain_cancels_backlog(corpus, daemon_factory):
    daemon, client = daemon_factory(start_scheduler=False)
    queued = client.submit(
        corpus["a"][0], config={"num_seeds": 6, "seed": 31}, wait=False
    )
    client.shutdown(drain=False)
    assert daemon.wait_until_stopped(timeout=30)
    assert daemon.queue.get(queued["job_id"]).state == CANCELLED


def test_daemon_rejects_bad_requests(corpus, daemon_factory):
    daemon, client = daemon_factory()
    with pytest.raises(ServerError, match="unknown op"):
        client._roundtrip({"op": "dance"})
    with pytest.raises(ServerError, match="design"):
        client._roundtrip({"op": "submit", "kind": "detect"})
    with pytest.raises(ServerError, match="unknown job id"):
        client.status("feedfacecafe")
    with pytest.raises(ServerError, match="cannot stat"):
        client.submit("/nonexistent/x.hgr", config=CFG)


def test_daemon_rejects_a_workers_config(corpus, daemon_factory):
    """The daemon's pool decides parallelism: a submit whose config names
    ``workers`` gets the typed unknown-field error, for detect and flow
    submits alike."""
    daemon, client = daemon_factory()
    path, _ = corpus["a"]
    with pytest.raises(ServerError, match="unknown FinderConfig field.*workers"):
        client.submit(path, config={**CFG, "workers": 2})
    with pytest.raises(ServerError, match="unknown FinderConfig field.*workers"):
        client.submit(
            path, kind="flow",
            stages=[{"stage": "detect", **CFG, "workers": 2}],
        )
    assert daemon.queue.submitted == 0


def test_daemon_refuses_second_daemon_on_live_socket(corpus, daemon_factory):
    daemon, _ = daemon_factory()
    with pytest.raises(ServerError, match="already listening"):
        ServerDaemon(
            ServerConfig(
                socket_path=daemon.config.socket_path,
                cache_dir=daemon.config.cache_dir,
            )
        ).start()


def test_daemon_claims_stale_socket(tmp_path, daemon_factory):
    import socket as socket_module

    stale = str(tmp_path / "stale.sock")
    leftover = socket_module.socket(
        socket_module.AF_UNIX, socket_module.SOCK_STREAM
    )
    leftover.bind(stale)
    leftover.close()  # socket file stays behind, nobody listening
    daemon, client = daemon_factory(socket_path=stale)
    assert client.ping()["event"] == "pong"


def test_client_without_daemon_raises():
    with pytest.raises(ServerError, match="is `repro serve` running"):
        Client("/tmp/no-such-repro-daemon.sock").ping()


# ----------------------------------------------------------------------
# CLI subcommands against a live daemon
# ----------------------------------------------------------------------
def test_cli_submit_and_status_roundtrip(corpus, daemon_factory, capsys):
    daemon, _ = daemon_factory()
    socket_path = daemon.config.socket_path
    path, _ = corpus["a"]
    assert main(["submit", path, "--socket", socket_path,
                 "--seeds", "6", "--seed", "3", "--quiet"]) == 0
    first = capsys.readouterr().out
    assert "computed in" in first
    assert main(["submit", path, "--socket", socket_path,
                 "--seeds", "6", "--seed", "3", "--quiet"]) == 0
    second = capsys.readouterr().out
    assert "cache in" in second
    assert first.splitlines()[0] == second.splitlines()[0]  # same summary

    assert main(["status", "--socket", socket_path]) == 0
    status_out = capsys.readouterr().out
    assert "1 warm hit(s)" in status_out
    assert main(["status", "--socket", socket_path, "--json"]) == 0
    assert '"warm_hits": 1' in capsys.readouterr().out


def test_cli_submit_no_wait_then_poll(corpus, daemon_factory, capsys):
    daemon, client = daemon_factory()
    socket_path = daemon.config.socket_path
    assert main(["submit", corpus["b"][0], "--socket", socket_path,
                 "--seeds", "6", "--seed", "42", "--no-wait"]) == 0
    out = capsys.readouterr().out
    job_id = out.split("job ")[1].split()[0]
    for _ in range(200):
        if client.status(job_id)["job"]["state"] == DONE:
            break
        time.sleep(0.05)
    assert main(["status", job_id, "--socket", socket_path]) == 0
    assert "done" in capsys.readouterr().out


def test_cli_pack_cache_dir(corpus, tmp_path, capsys):
    import json

    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"designs": [corpus["a"][0]]}))
    cache_dir = str(tmp_path / "cache")
    assert main(["pack", str(manifest), "--cache-dir", cache_dir]) == 0
    assert "1 packed" in capsys.readouterr().out
    assert main(["pack", str(manifest), "--cache-dir", cache_dir]) == 0
    assert "1 reused" in capsys.readouterr().out
    with ResultStore(cache_dir) as store:
        assert os.path.exists(
            designs.pack_path(store, fingerprint_netlist(corpus["a"][1]))
        )


def test_cli_status_shutdown(corpus, daemon_factory, capsys):
    daemon, _ = daemon_factory()
    assert main(["status", "--socket", daemon.config.socket_path,
                 "--shutdown"]) == 0
    assert "shutdown requested" in capsys.readouterr().out
    assert daemon.wait_until_stopped(timeout=30)


# ----------------------------------------------------------------------
# Delta submits (protocol 2)
# ----------------------------------------------------------------------
#: Small explicit order length so a localized edit leaves most seed
#: footprints clean (see repro.incremental) — the regime delta submits
#: are built for.
DELTA_CFG = {"num_seeds": 6, "seed": 3, "max_order_length": 20}


def test_daemon_delta_submit_end_to_end(corpus, daemon_factory):
    """Edit travels as JSON; the design is never re-shipped or re-read."""
    from repro.generators.perturb import rewire_pins
    from repro.service.fingerprint import job_fingerprint

    daemon, client = daemon_factory()
    path, netlist = corpus["a"]
    base = client.submit(path, config=DELTA_CFG, priority="interactive")
    assert base["incremental"]["mode"] == "full"

    edited, delta = rewire_pins(netlist, 0.002, rng=1, return_delta=True)
    misses_before = daemon.designs.stats.misses
    patched = client.submit(
        path, config=DELTA_CFG, delta=delta.to_dict(), priority="interactive"
    )
    assert patched["event"] == "result" and patched["cached"] is False
    assert patched["fingerprint"] == job_fingerprint(
        edited, FinderConfig(**DELTA_CFG)
    )
    provenance = patched["incremental"]
    assert provenance["mode"] == "incremental"
    assert provenance["base_fingerprint"] == fingerprint_netlist(netlist)
    assert 0 < provenance["seeds_recomputed"] < provenance["seeds_total"]
    # The base design was answered from the warm cache, not re-loaded.
    assert daemon.designs.stats.misses == misses_before

    # Parity: the patched report equals an offline cold run on the edit.
    offline = report_to_dict(
        find_tangled_logic(edited, FinderConfig(**DELTA_CFG))
    )
    offline.pop("runtime_seconds")
    served = dict(patched["report"])
    served.pop("runtime_seconds")
    assert served == offline

    # Same delta again: answered from the result store, no recompute.
    warm = client.submit(path, config=DELTA_CFG, delta=delta.to_dict())
    assert warm["cached"] is True
    assert "incremental" not in warm


def test_daemon_delta_repeat_is_answered_without_a_splice(
    corpus, daemon_factory, count_splices
):
    """A patched delta submit leaves an edit record, not a pack; the same
    delta again is answered from the store with no splice."""
    from repro.generators.perturb import rewire_pins

    daemon, client = daemon_factory()
    path, netlist = corpus["a"]
    client.submit(path, config=DELTA_CFG)
    folder = os.path.join(daemon.config.cache_dir, "designs")
    packs = sorted(os.listdir(folder))
    _, delta = rewire_pins(netlist, 0.002, rng=1, return_delta=True)
    first = client.submit(path, config=DELTA_CFG, delta=delta.to_dict())
    assert first["incremental"]["mode"] == "incremental"
    assert len(count_splices) == 1
    repeat = client.submit(path, config=DELTA_CFG, delta=delta.to_dict())
    assert repeat["cached"] is True
    assert repeat["fingerprint"] == first["fingerprint"]
    assert repeat["report"] == first["report"]
    assert len(count_splices) == 1
    assert sorted(os.listdir(folder)) == packs
    assert daemon.store.kind_counts()[designs.KIND_DESIGN_EDIT] == 1


def test_daemon_delta_probe_miss_splices_and_checks_the_edit_record(
    corpus, daemon_factory, count_splices
):
    """An edit record whose report row is gone costs one splice; one that
    names a wrong design is dropped and the job re-keyed to the real one."""
    from repro.generators.perturb import rewire_pins
    from repro.incremental import delta_fingerprint

    daemon, client = daemon_factory()
    path, netlist = corpus["b"]
    client.submit(path, config=DELTA_CFG)
    _, delta = rewire_pins(netlist, 0.002, rng=1, return_delta=True)
    first = client.submit(path, config=DELTA_CFG, delta=delta.to_dict())
    delta_fp = delta_fingerprint(fingerprint_netlist(netlist), delta)

    daemon.store.put_payload(
        f"edit-{delta_fp}",
        {**daemon.store.get_payload(f"edit-{delta_fp}"), "fingerprint": "f" * 64},
        kind=designs.KIND_EDIT_TARGET,
    )
    again = client.submit(path, config=DELTA_CFG, delta=delta.to_dict())
    assert again["cached"] is True and again["fingerprint"] == first["fingerprint"]
    assert designs.edit_target(daemon.store, delta_fp) is None
    assert len(count_splices) == 2

    daemon.store.evict(first["fingerprint"])
    rerun = client.submit(path, config=DELTA_CFG, delta=delta.to_dict())
    assert rerun["cached"] is False and rerun["fingerprint"] == first["fingerprint"]
    assert rerun["report"]["gtls"] == first["report"]["gtls"]
    assert len(count_splices) == 3


def test_terminal_records_hold_no_netlist(corpus, daemon_factory):
    """The job history keeps status rows, not the designs jobs ran on."""
    from repro.generators.perturb import rewire_pins
    from repro.netlist.hypergraph import Netlist
    from repro.server.queue import TERMINAL_STATES

    daemon, client = daemon_factory()
    path, netlist = corpus["a"]
    client.submit(path, config=DELTA_CFG)  # cold
    client.submit(path, config=DELTA_CFG)  # warm hit
    _, delta = rewire_pins(netlist, 0.002, rng=1, return_delta=True)
    client.submit(path, config=DELTA_CFG, delta=delta.to_dict())
    client.submit(path, kind="flow", stages=[{"stage": "detect", **CFG}])

    def netlists(value):
        if isinstance(value, Netlist):
            return 1
        if isinstance(value, (tuple, list)):
            return sum(netlists(item) for item in value)
        return 0

    rows = daemon.queue.jobs(limit=100)
    assert len(rows) == 4
    for row in rows:
        record = daemon.queue.get(row["job_id"])
        assert record.state in TERMINAL_STATES
        assert netlists(list(vars(record).values())) == 0


def test_daemon_delta_submit_validation(corpus, daemon_factory):
    daemon, client = daemon_factory()
    path, _ = corpus["a"]
    with pytest.raises(ServerError, match='kind "detect"'):
        client.submit(path, kind="flow", delta={"version": 1})
    with pytest.raises(ServerError, match="bad delta payload"):
        client.submit(path, config=DELTA_CFG, delta={"version": 999})
    # A delta meant for another base fails loudly instead of detecting the
    # base unchanged.
    from repro.incremental import CellEdit, NetEdit, NetlistDelta

    ghost = NetlistDelta(
        cells_changed=(CellEdit("ghost_cell", 1.0, 1, False),),
        nets_changed=(NetEdit("ghost_net", ("a",), ("b",)),),
    )
    with pytest.raises(ServerError, match="bad delta payload: .*'ghost_cell'"):
        client.submit(path, config=DELTA_CFG, delta=ghost.to_dict())
    with pytest.raises(ServerError, match="delta"):
        # Raw request with a non-dict delta (bypasses client validation).
        client._roundtrip(
            {"op": "submit", "kind": "detect", "design": path,
             "delta": "not-a-dict"}
        )


# ----------------------------------------------------------------------
# Job groups, per-class depths and sweeps over the daemon
# ----------------------------------------------------------------------
def test_status_reports_per_priority_class_depths(corpus, daemon_factory):
    daemon, client = daemon_factory(start_scheduler=False)
    path, _ = corpus["a"]
    client.submit(path, config={"num_seeds": 6, "seed": 40},
                  priority="interactive", wait=False)
    for seed in (41, 42):
        client.submit(path, config={"num_seeds": 6, "seed": seed},
                      priority="sweep", wait=False)
    depths = client.status()["queue"]["depths"]
    assert depths == {"interactive": 1, "batch": 0, "sweep": 2}


def test_cli_status_prints_per_class_depths(corpus, daemon_factory, capsys):
    daemon, client = daemon_factory(start_scheduler=False)
    path, _ = corpus["a"]
    client.submit(path, config={"num_seeds": 6, "seed": 50},
                  priority="sweep", wait=False, group="sweep")
    assert main(["status", "--socket", daemon.config.socket_path]) == 0
    out = capsys.readouterr().out
    assert "(interactive=0 batch=0 sweep=1)" in out
    assert "[sweep]" in out


def test_status_group_filter(corpus, daemon_factory):
    daemon, client = daemon_factory(start_scheduler=False)
    path, _ = corpus["a"]
    client.submit(path, config={"num_seeds": 6, "seed": 60},
                  priority="sweep", wait=False, group="night/a")
    client.submit(path, config={"num_seeds": 6, "seed": 61},
                  priority="sweep", wait=False, group="night/b")
    client.submit(path, config={"num_seeds": 6, "seed": 62}, wait=False)
    grouped = client.status(group="night/b")["jobs"]
    assert len(grouped) == 1
    assert grouped[0]["group"] == "night/b"
    assert len(client.status()["jobs"]) == 3


def _sweep_rows(outcome):
    from repro.service.aggregate import point_rows

    rows = point_rows(outcome)
    for row in rows:
        row.pop("runtime_seconds")
        # How the report was obtained: a hit, a patch or a full run.
        for key in ("cached", "incremental_mode", "seeds_total", "seeds_recomputed"):
            row.pop(key)
        row["report"].pop("runtime_seconds")
    return rows


def test_sharded_sweep_via_daemon_matches_local(corpus, daemon_factory):
    """--via-daemon parity: run_sweep through a DaemonRunner (priority-class
    sweep submits) gives the rows of run_sweep through a BatchRunner."""
    from repro.server import DaemonRunner
    from repro.service import BatchProgress, BatchRunner, run_sweep

    daemon, client = daemon_factory()
    # One sweep-priority job outside the sweep's group.
    client.submit(
        corpus["a"][0], config={"num_seeds": 4, "seed": 9}, priority="sweep"
    )
    designs = [("a", corpus["a"][1]), ("b", corpus["b"][1])]
    design_paths = {"a": corpus["a"][0], "b": corpus["b"][0]}
    base = FinderConfig(num_seeds=4, seed=3)
    grid = {"lambda_skip": [0, 10]}

    events = []
    with DaemonRunner(
        daemon.config.socket_path, design_paths, progress=events.append
    ) as runner:
        remote = run_sweep(designs, base, grid, runner)
    assert all(result.ok and not result.cached for result in remote.job_results)
    assert all(isinstance(event, BatchProgress) for event in events)
    assert [(e.done, e.total) for e in events] == [(i, 4) for i in range(1, 5)]
    with BatchRunner() as runner:
        local = run_sweep(designs, base, grid, runner)
    assert _sweep_rows(remote) == _sweep_rows(local)

    # A re-run is answered from the daemon's store.
    with DaemonRunner(daemon.config.socket_path, design_paths) as runner:
        warm = run_sweep(designs, base, grid, runner)
    assert all(result.cached for result in warm.job_results)
    assert _sweep_rows(warm) == _sweep_rows(local)

    # The sweep group lists the sweep's jobs, all at priority class sweep,
    # and not the other sweep-priority job.
    jobs = client.status(group="sweep")["jobs"]
    assert len(client.status()["jobs"]) > len(jobs) >= len(remote.plan.jobs)
    assert all(job["group"] == "sweep" for job in jobs)
    assert all(job["priority"] == "sweep" for job in jobs)


def test_batch_via_daemon_matches_local_batch(corpus, daemon_factory, tmp_path, capsys):
    """``repro batch --via-daemon`` gives the rows of the local batch, and
    a job listed twice is submitted once."""
    import json

    daemon, client = daemon_factory()
    manifest = tmp_path / "jobs.json"
    manifest.write_text(json.dumps({
        "defaults": {"num_seeds": 4, "seed": 3},
        "jobs": [{"design": corpus["a"][0], "label": "a"},
                 {"design": corpus["b"][0], "label": "b", "lambda_skip": 10},
                 {"design": corpus["a"][0], "label": "a"}],
    }))
    rows = {}
    for name, flags in (
        ("remote", ["--via-daemon", "--socket", daemon.config.socket_path]),
        ("local", ["--no-cache"]),
    ):
        out = str(tmp_path / f"{name}.jsonl")
        assert main(["batch", str(manifest), "--quiet", "--jsonl", out, *flags]) == 0
        with open(out) as handle:
            rows[name] = [json.loads(line) for line in handle]
        assert "3 point(s) -> 2 distinct job(s) (1 deduplicated)" in (
            capsys.readouterr().out
        )
    for row in rows["remote"] + rows["local"]:
        row.pop("runtime_seconds")
        row["report"].pop("runtime_seconds")
    assert [row["design"] for row in rows["remote"]] == ["a", "b", "a"]
    assert all(row["incremental_mode"] == "full" for row in rows["remote"])
    assert rows["remote"] == rows["local"]
    assert len(client.status(group="sweep")["jobs"]) == 2


def test_via_daemon_requires_design_paths(corpus, daemon_factory):
    from repro.errors import ServiceError
    from repro.server import DaemonRunner
    from repro.service import run_sweep

    daemon, _ = daemon_factory()
    runner = DaemonRunner(daemon.config.socket_path, {"b": corpus["b"][0]})
    with pytest.raises(ServiceError, match="no design path for label"):
        run_sweep(
            [("a", corpus["a"][1])], FinderConfig(num_seeds=4, seed=3),
            {"lambda_skip": [0]}, runner,
        )


def test_daemon_runner_fails_every_job_without_a_daemon(
    corpus, tmp_path, monkeypatch, capsys
):
    """A submit that cannot reach the daemon is that job's failed result;
    ``repro sweep --via-daemon`` then exits non-zero."""
    import json

    from repro.server import DaemonRunner
    from repro.service import run_sweep

    socket_path = str(tmp_path / "nobody-listens.sock")
    with DaemonRunner(socket_path, {"a": corpus["a"][0]}) as runner:
        outcome = run_sweep(
            [("a", corpus["a"][1])], FinderConfig(num_seeds=4, seed=3),
            {"lambda_skip": [0, 10]}, runner,
        )
    assert len(outcome.job_results) == 2
    for result in outcome.job_results:
        assert not result.ok and "cannot reach daemon" in result.error

    manifest = tmp_path / "sweep.json"
    manifest.write_text(json.dumps({
        "designs": [corpus["a"][0]], "base": {"num_seeds": 4, "seed": 3},
        "grid": {"lambda_skip": [0, 10]},
    }))
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", str(manifest), "--via-daemon", "--socket",
                 socket_path, "--quiet"]) == 1
    out = capsys.readouterr().out
    assert "2 job(s): 0 cache hit(s), 0 computed, 2 failed" in out
    assert "cache: the daemon's store" in out
    assert not os.path.exists(tmp_path / ".repro-cache")  # no local store


def test_daemon_runner_propagates_bugs(corpus, daemon_factory, monkeypatch):
    """Only typed (ReproError) submit failures become failed results; a bug
    on this side propagates out of run()."""
    import repro.server.client as client_module
    from repro.server import DaemonRunner
    from repro.service import DetectionJob

    daemon, _ = daemon_factory()

    def broken(payload):
        raise TypeError("decoder bug")

    monkeypatch.setattr(client_module, "report_from_dict", broken)
    job = DetectionJob(corpus["a"][1], FinderConfig(num_seeds=4, seed=3), "a")
    with DaemonRunner(daemon.config.socket_path, {"a": corpus["a"][0]}) as runner:
        with pytest.raises(TypeError, match="decoder bug"):
            runner.run([job])
