"""Tests of the batch detection service layer (:mod:`repro.service`)."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.errors import ServiceError
from repro.finder import FinderConfig, FinderReport, TangledLogicFinder, find_tangled_logic
from repro.finder.config import DEFAULT_RENT_EXPONENT
from repro.flow import DetectStage, Flow
from repro.service.store import KIND_FINDER_REPORT
from repro.generators.random_gtl import planted_gtl_graph
from repro.service import (
    BatchRunner,
    DetectionJob,
    ResultStore,
    WorkerPool,
    expand_grid,
    fingerprint_config,
    fingerprint_netlist,
    job_fingerprint,
    plan_sweep,
    report_from_dict,
    report_to_dict,
    run_sweep,
)

CFG = FinderConfig(num_seeds=6, seed=3)


@pytest.fixture(scope="module")
def small():
    """A small planted netlist plus a deterministic config."""
    netlist, truth = planted_gtl_graph(800, [60], seed=5)
    return netlist, truth


@pytest.fixture(scope="module")
def small_report(small):
    netlist, _ = small
    return find_tangled_logic(netlist, CFG)


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def test_fingerprint_is_content_based(small):
    netlist, _ = small
    rebuilt, _ = planted_gtl_graph(800, [60], seed=5)
    assert rebuilt is not netlist
    assert fingerprint_netlist(rebuilt) == fingerprint_netlist(netlist)

    other, _ = planted_gtl_graph(800, [60], seed=6)
    assert fingerprint_netlist(other) != fingerprint_netlist(netlist)


def test_fingerprints_are_pinned():
    """Config and job keys are stable, so existing cache keys keep
    answering.  A change to the canonical form must bump
    ``FINGERPRINT_VERSION`` and re-record these digests."""
    assert fingerprint_config(FinderConfig()) == (
        "b06569b99a67b1cf8cc8442eff904d8b457227098c3ede4921bb76f704900913"
    )
    # An int for a float field (refine_length_factor) normalizes to 3.0.
    custom = FinderConfig(
        num_seeds=8, seed=3, metric="ngtl_s", lambda_skip=0, min_gtl_size=40,
        refine_length_factor=3, seed_strategy="stratified",
    )
    assert fingerprint_config(custom) == (
        "4de8e4d92edfbaa52b4312a646a24f354aaa78f3ac7321c7fc27c389805aa3e2"
    )
    netlist, _ = planted_gtl_graph(400, [60], seed=5)
    assert fingerprint_netlist(netlist) == (
        "6ffe2b319911ef9bc39b0f8cb020f310834bc491a387084e76aefcf39d2820cb"
    )
    assert job_fingerprint(netlist, FinderConfig(num_seeds=8, seed=1)) == (
        "13cfe278d0f89064878f8dd28dab9b6d8e4d4f04839cf80fc785ce4ef063348b"
    )
    assert fingerprint_config(CFG) != fingerprint_config(CFG.with_overrides(num_seeds=7))


def test_fingerprint_stable_across_process_restarts(small):
    """The same content must hash identically in a fresh interpreter."""
    netlist, _ = small
    script = (
        "from repro.generators.random_gtl import planted_gtl_graph\n"
        "from repro.finder import FinderConfig\n"
        "from repro.service import job_fingerprint\n"
        "netlist, _ = planted_gtl_graph(800, [60], seed=5)\n"
        "print(job_fingerprint(netlist, FinderConfig(num_seeds=6, seed=3)))\n"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    output = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    ).stdout.strip()
    assert output == job_fingerprint(netlist, CFG)


def test_job_fingerprint_accepts_precomputed_netlist_hash(small):
    netlist, _ = small
    pre = fingerprint_netlist(netlist)
    assert job_fingerprint(netlist, CFG, netlist_fingerprint=pre) == job_fingerprint(
        netlist, CFG
    )


# ----------------------------------------------------------------------
# Codec + store
# ----------------------------------------------------------------------
def test_report_codec_round_trip(small_report):
    decoded = report_from_dict(json.loads(json.dumps(report_to_dict(small_report))))
    assert decoded == small_report


def _put_report(store, fingerprint, report):
    """Store ``report`` the way a one-stage detect flow records it."""
    store.put_payload(
        fingerprint, report_to_dict(report), kind=KIND_FINDER_REPORT,
        num_items=report.num_gtls,
    )


def _get_report(store, fingerprint):
    payload = store.get_payload(fingerprint, kind=KIND_FINDER_REPORT)
    return None if payload is None else report_from_dict(payload)


def test_store_round_trip_is_bit_identical(tmp_path, small_report):
    with ResultStore(str(tmp_path)) as store:
        _put_report(store, "fp1", small_report)
        assert "fp1" in store
        assert len(store) == 1
        assert _get_report(store, "fp1") == small_report
        assert store.stats.hits == 1 and store.stats.misses == 0


def test_store_persists_across_instances(tmp_path, small_report):
    with ResultStore(str(tmp_path)) as store:
        _put_report(store, "fp1", small_report)
    with ResultStore(str(tmp_path)) as store:
        assert _get_report(store, "fp1") == small_report


def test_store_miss_evict_and_lru(tmp_path, small_report):
    with ResultStore(str(tmp_path)) as store:
        assert _get_report(store, "absent") is None
        assert store.stats.misses == 1
        _put_report(store, "a", small_report)
        _put_report(store, "b", small_report)
        assert store.evict("a") is True
        assert store.evict("a") is False
        assert store.evict_lru(0) == 1
        assert len(store) == 0


def test_store_drops_rows_with_invalid_configs(tmp_path, small, small_report):
    """Version-skewed rows whose config no longer validates must read as a
    miss and be evicted, not raise FinderError into the batch run."""
    netlist, _ = small
    with ResultStore(str(tmp_path)) as store:
        _put_report(store, job_fingerprint(netlist, CFG), small_report)
        store._conn.execute(
            "UPDATE results SET payload = ?",
            (store._conn.execute("SELECT payload FROM results").fetchone()[0]
             .replace('"num_seeds":6', '"num_seeds":0'),),
        )
        store._conn.commit()
        flow = Flow([DetectStage(CFG)])
        assert flow.run_cached(fingerprint_netlist(netlist), store) is None
        assert len(store) == 0


def test_store_drops_corrupt_payloads(tmp_path, small_report):
    store = ResultStore(str(tmp_path))
    _put_report(store, "fp1", small_report)
    store._conn.execute("UPDATE results SET payload = '{broken'")
    store._conn.commit()
    assert _get_report(store, "fp1") is None  # treated as a miss, not an exception
    assert len(store) == 0  # corrupt row evicted
    store.close()
    with pytest.raises(ServiceError):
        store.get_payload("fp1")


# ----------------------------------------------------------------------
# Worker pool
# ----------------------------------------------------------------------
def test_pool_matches_serial_results(small):
    netlist, _ = small
    serial = find_tangled_logic(netlist, CFG)
    with WorkerPool(2) as pool:
        report = TangledLogicFinder(netlist, CFG).run(pool=pool)
        again = TangledLogicFinder(netlist, CFG).run(pool=pool)
    assert report.gtls == serial.gtls
    assert report.rent_exponent == serial.rent_exponent
    assert again.gtls == serial.gtls
    assert pool.stats.batches == 2 * CFG.num_seeds  # one task per seed


def test_pool_workers_field_does_not_change_results(small):
    netlist, _ = small
    serial = find_tangled_logic(netlist, CFG)
    with WorkerPool(2) as pool:
        parallel = TangledLogicFinder(netlist, CFG).run(pool=pool)
        assert pool.stats.batches > 0
    assert parallel.gtls == serial.gtls
    assert report_to_dict(parallel) == {
        **report_to_dict(serial),
        "runtime_seconds": parallel.runtime_seconds,
    }


def test_pool_serial_path_avoids_processes(small):
    netlist, _ = small
    pool = WorkerPool(1)
    report = TangledLogicFinder(netlist, CFG).run(pool=pool)
    assert pool.stats.serial_runs == 1
    assert pool._executor is None
    assert report.gtls == find_tangled_logic(netlist, CFG).gtls


def test_pool_validates_arguments():
    with pytest.raises(ServiceError):
        WorkerPool(0)


def test_pool_reraises_a_failing_seed_and_stays_usable(small, monkeypatch):
    """A seed that raises surfaces as that very exception; the run's seeds
    that had not started are cancelled, and the same pool then runs the
    next job bit-identically to a serial run."""
    import threading
    import time

    from repro.service import pool as pool_module

    netlist, _ = small
    config = FinderConfig(num_seeds=8, seed=3)
    jobs = [(cell, 100 + cell) for cell in netlist.movable_cells()[:8]]
    boom = RuntimeError("seed failed")
    started = []
    lock = threading.Lock()

    def flaky_seed(netlist, config, seed_cell, rng_seed):
        with lock:
            started.append(seed_cell)
        if seed_cell == jobs[0][0]:
            raise boom
        time.sleep(0.3)  # keep both threads busy past the cancellation
        return None, float("nan"), 1, ()

    with WorkerPool(2) as pool:
        monkeypatch.setattr(pool_module, "_process_seed", flaky_seed)
        with pytest.raises(RuntimeError) as excinfo:
            pool.run_seed_jobs(netlist, config, jobs)
        assert excinfo.value is boom
        assert len(started) < len(jobs)  # the pending seeds never ran
        monkeypatch.undo()

        report = TangledLogicFinder(netlist, CFG).run(pool=pool)
    serial = find_tangled_logic(netlist, CFG)
    assert report_to_dict(report) == {
        **report_to_dict(serial),
        "runtime_seconds": report.runtime_seconds,
    }


# ----------------------------------------------------------------------
# Batch runner
# ----------------------------------------------------------------------
def test_batch_runner_cache_hit_is_bit_identical(tmp_path, small):
    netlist, _ = small
    job = DetectionJob(netlist=netlist, config=CFG, label="j")
    with ResultStore(str(tmp_path)) as store:
        with BatchRunner(workers=1, store=store) as runner:
            cold = runner.run([job])[0]
            warm = runner.run([job])[0]
    assert cold.cached is False and cold.ok
    assert warm.cached is True and warm.attempts == 0
    assert warm.report == cold.report


def test_batch_runner_never_caches_nondeterministic_jobs(tmp_path, small):
    netlist, _ = small
    job = DetectionJob(netlist=netlist, config=FinderConfig(num_seeds=4, seed=None))
    with ResultStore(str(tmp_path)) as store:
        with BatchRunner(workers=1, store=store) as runner:
            result = runner.run([job])[0]
        assert len(store) == 0
    assert result.ok and not result.cached


def test_batch_runner_records_finder_errors(tmp_path, small):
    netlist, _ = small
    # min_gtl_size beyond the netlist is a config-level FinderError at run
    # time; the runner must record it, not raise.
    bad = DetectionJob(
        netlist=netlist,
        config=FinderConfig(num_seeds=2, seed=1, seed_strategy="uniform",
                            min_gtl_size=10_000, max_order_length=50),
    )
    good = DetectionJob(netlist=netlist, config=CFG)
    events = []
    with BatchRunner(workers=1, progress=events.append) as runner:
        results = runner.run([bad, good])
    assert results[0].ok  # large min size just means zero candidates
    assert results[1].ok
    assert [e.done for e in events] == [1, 2]
    assert all(e.total == 2 for e in events)


def test_batch_runner_reports_construction_errors():
    from repro.netlist.builder import NetlistBuilder

    builder = NetlistBuilder()
    builder.add_cell("only")
    tiny = builder.build()
    with BatchRunner(workers=1) as runner:
        result = runner.run([DetectionJob(netlist=tiny, config=CFG)])[0]
    assert result.report is None
    assert not result.ok
    assert "netlist too small" in result.error


def test_batch_runner_attempts_a_crashing_job_once(small, monkeypatch):
    from repro.incremental import engine

    calls = []

    def broken_run(netlist, config, jobs, pool=None, known=None):
        calls.append(config)
        raise TypeError("kernel bug")

    monkeypatch.setattr(engine, "run_seed_plan", broken_run)
    netlist, _ = small
    with BatchRunner(workers=1) as runner:
        result = runner.run([DetectionJob(netlist=netlist, config=CFG)])[0]
    assert len(calls) == 1  # a deterministic bug is not retried
    assert not result.ok and result.attempts == 1
    assert result.error == "TypeError: kernel bug"


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
def test_expand_grid_orders_and_validates():
    combos = expand_grid(CFG, {"num_seeds": [4, 8], "lambda_skip": [0]})
    assert [c[0] for c in combos] == [
        {"lambda_skip": 0, "num_seeds": 4},
        {"lambda_skip": 0, "num_seeds": 8},
    ]
    with pytest.raises(ServiceError):
        expand_grid(CFG, {"not_a_field": [1]})
    with pytest.raises(ServiceError):
        expand_grid(CFG, {"num_seeds": []})
    with pytest.raises(ServiceError):
        expand_grid(CFG, {"num_seeds": [0]})  # invalid value -> ServiceError


def test_expand_grid_unknown_axis_lists_valid_fields():
    import dataclasses

    with pytest.raises(ServiceError) as excinfo:
        expand_grid(CFG, {"lamda_skip": [1]})  # typo'd axis
    message = str(excinfo.value)
    assert "lamda_skip" in message and "valid fields" in message
    # Every real FinderConfig field is named, so the fix is in the error.
    for config_field in dataclasses.fields(FinderConfig):
        assert config_field.name in message


def test_plan_sweep_deduplicates_overlapping_points(small):
    netlist, _ = small
    # lambda_skip=20 equals the base value, so the grid collapses 4 -> 2.
    plan = plan_sweep(
        [("d", netlist)], CFG, {"lambda_skip": [20, 20], "num_seeds": [4, 6]}
    )
    assert len(plan.points) == 4
    assert len(plan.jobs) == 2
    assert plan.num_deduplicated == 2
    answered = {point.job_index for point in plan.points}
    assert answered == set(range(len(plan.jobs)))


def test_plan_sweep_never_deduplicates_nondeterministic_points(small):
    netlist, _ = small
    base = FinderConfig(num_seeds=4, seed=None)
    plan = plan_sweep([("d", netlist)], base, {"lambda_skip": [20, 20]})
    # Identical configs, but seed=None means independent random samples:
    # both points must get their own job.
    assert len(plan.points) == 2
    assert len(plan.jobs) == 2
    assert plan.num_deduplicated == 0


def test_run_sweep_fans_results_back_to_points(tmp_path, small):
    netlist, _ = small
    with ResultStore(str(tmp_path)) as store:
        with BatchRunner(workers=1, store=store) as runner:
            outcome = run_sweep(
                [("d", netlist)], CFG, {"num_seeds": [4, 4, 6]}, runner
            )
    pairs = outcome.point_results()
    assert len(pairs) == 3
    assert pairs[0][1] is pairs[1][1]  # deduplicated points share one result
    assert all(result.ok for _, result in pairs)


# ----------------------------------------------------------------------
# Rent fallback satellite
# ----------------------------------------------------------------------
def test_rent_fallback_flag_default_false(small_report):
    assert small_report.rent_fallback is False
    assert "assumed default" not in small_report.summary()


def test_rent_fallback_fires_on_degenerate_netlist():
    """A netlist where no ordering yields a usable Rent prefix must be
    flagged, not silently reported as a measured p=0.6."""
    from repro.netlist.builder import NetlistBuilder

    builder = NetlistBuilder()
    builder.add_cells(10)  # fully disconnected: every ordering is [seed]
    netlist = builder.build()
    report = TangledLogicFinder(
        netlist, FinderConfig(num_seeds=3, seed=1)
    ).run()
    assert report.rent_fallback is True
    assert report.rent_exponent == DEFAULT_RENT_EXPONENT
    assert "assumed default" in report.summary()


def test_fingerprint_normalizes_int_valued_float_fields():
    a = CFG.with_overrides(refine_length_factor=2)
    b = CFG.with_overrides(refine_length_factor=2.0)
    assert a == b
    assert fingerprint_config(a) == fingerprint_config(b)


def test_cache_hit_runtime_is_measured(tmp_path, small):
    netlist, _ = small
    job = DetectionJob(netlist=netlist, config=CFG)
    with ResultStore(str(tmp_path)) as store:
        with BatchRunner(workers=1, store=store) as runner:
            runner.run_one(job)
            warm = runner.run_one(job)
    assert warm.cached
    assert warm.runtime_seconds > 0.0  # lookup time, not a hardcoded zero


def test_rent_fallback_is_named_constant_and_flagged(small_report):
    assert DEFAULT_RENT_EXPONENT == 0.6
    flagged = FinderReport(
        gtls=(),
        config=CFG,
        rent_exponent=DEFAULT_RENT_EXPONENT,
        num_orderings=0,
        num_candidates=0,
        runtime_seconds=0.0,
        rent_fallback=True,
    )
    assert "assumed default" in flagged.summary()


# ----------------------------------------------------------------------
# Experiments cache opt-in
# ----------------------------------------------------------------------
def test_experiments_detect_uses_cache_dir(tmp_path, monkeypatch, small):
    from repro.flow import CACHE_ENV_VAR, detect

    netlist, _ = small
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    first = detect(netlist, CFG)
    second = detect(netlist, CFG)
    assert second == first
    with ResultStore(str(tmp_path)) as store:
        assert store.kind_counts()["finder_report"] == 1


def test_experiments_detect_without_cache_dir(monkeypatch, small):
    from repro.flow import CACHE_ENV_VAR, detect

    netlist, _ = small
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    report = detect(netlist, CFG)
    plain = find_tangled_logic(netlist, CFG)
    assert report.gtls == plain.gtls
    assert report.rent_exponent == plain.rent_exponent


# ----------------------------------------------------------------------
# WAL concurrency: daemon threads + CLI runs share one cache directory
# ----------------------------------------------------------------------
def test_store_uses_wal_journal_mode(tmp_path):
    with ResultStore(str(tmp_path)) as store:
        assert store.journal_mode.lower() == "wal"


def test_store_two_concurrent_writers(tmp_path, small_report):
    """Two open stores (daemon + a concurrent CLI run) write one cache dir.

    Before WAL + busy_timeout, the second writer would hit ``database is
    locked``; now both sets of puts land and each store reads the other's
    rows through its own connection.
    """
    import dataclasses
    import threading

    writers = [ResultStore(str(tmp_path)) for _ in range(2)]
    errors = []

    def hammer(store, offset):
        try:
            for index in range(20):
                report = dataclasses.replace(
                    small_report,
                    config=dataclasses.replace(
                        small_report.config, seed=offset * 100 + index
                    ),
                )
                _put_report(store, f"writer{offset}-{index:03d}", report)
        except Exception as error:  # surfaced after the join
            errors.append(error)

    threads = [
        threading.Thread(target=hammer, args=(store, offset))
        for offset, store in enumerate(writers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert errors == []
    try:
        # Cross-visibility: each connection sees both writers' rows.
        for store in writers:
            assert len(store) == 40
            assert _get_report(store, "writer0-000") is not None
            assert _get_report(store, "writer1-019") is not None
    finally:
        for store in writers:
            store.close()


def test_store_concurrent_same_fingerprint_upsert(tmp_path, small_report):
    """Both writers racing on the SAME fingerprint must not corrupt the row."""
    import threading

    writers = [ResultStore(str(tmp_path)) for _ in range(2)]
    errors = []

    def hammer(store):
        try:
            for _ in range(10):
                _put_report(store, "shared-fingerprint", small_report)
        except Exception as error:
            errors.append(error)

    threads = [threading.Thread(target=hammer, args=(s,)) for s in writers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert errors == []
    try:
        assert _get_report(writers[0], "shared-fingerprint") == small_report
        assert len(writers[1]) == 1
    finally:
        for store in writers:
            store.close()
