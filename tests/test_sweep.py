"""Sweep execution: plan properties, seed-thread parity, store merge,
aggregate and the CLI."""

import json
import os
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.finder.config import FinderConfig
from repro.generators.random_gtl import planted_gtl_graph
from repro.io.hgr import write_hgr
from repro.service.aggregate import (
    AGGREGATE_SCHEMA,
    aggregate_sweep,
    point_rows,
    write_aggregate,
)
from repro.service.jobs import BatchRunner
from repro.service.store import (
    KIND_FINDER_REPORT,
    MergeStats,
    ResultStore,
    row_schema_version,
)
from repro.service.sweep import plan_sweep, run_sweep

CFG = FinderConfig(num_seeds=4, seed=3)
GRID = {"lambda_skip": [0, 10], "min_gtl_size": [20, 30]}


@pytest.fixture(scope="module")
def small():
    netlist, truth = planted_gtl_graph(600, [50], seed=5)
    return netlist, truth


# A tiny netlist for planning-only tests (never executed); module-level so
# hypothesis-driven tests can use it without fixture plumbing.
_TINY, _ = planted_gtl_graph(200, [30], seed=1)


# ----------------------------------------------------------------------
# Plan properties
# ----------------------------------------------------------------------
_AXIS_POOL = {
    "num_seeds": (2, 4, 6, 8),
    "lambda_skip": (0, 10, 20),
    "min_gtl_size": (20, 30, 40),
    "boundary_fraction": (0.1, 0.2),
}


@st.composite
def _grids(draw):
    axes = draw(
        st.lists(
            st.sampled_from(sorted(_AXIS_POOL)), min_size=1, max_size=3,
            unique=True,
        )
    )
    # Values drawn with repetition so colliding grid points (the dedup
    # cases) are generated routinely.
    return {
        axis: draw(
            st.lists(st.sampled_from(_AXIS_POOL[axis]), min_size=1, max_size=3)
        )
        for axis in axes
    }


@settings(max_examples=30, deadline=None)
@given(grid=_grids())
def test_property_deterministic_points_dedup_to_one_job(grid):
    """Deterministic points dedup in the plan: one job per distinct
    fingerprint, every point answered by one of them."""
    plan = plan_sweep([("d", _TINY)], CFG, grid)
    fingerprints = [job.fingerprint for job in plan.jobs]
    assert len(set(fingerprints)) == len(fingerprints)
    assert len(plan.points) >= len(plan.jobs)
    assert {p.job_index for p in plan.points} == set(range(len(plan.jobs)))


@settings(max_examples=30, deadline=None)
@given(grid=_grids())
def test_property_nondet_points_never_merge(grid):
    """seed=None points are independent samples: one job each in the plan,
    even when their configs collide."""
    base = FinderConfig(num_seeds=4, seed=None)
    plan = plan_sweep([("d", _TINY)], base, grid)
    assert len(plan.jobs) == len(plan.points)  # never deduplicated
    assert [p.job_index for p in plan.points] == list(range(len(plan.jobs)))


# ----------------------------------------------------------------------
# Execution: seed threads
# ----------------------------------------------------------------------
def _strip_volatile(rows):
    for row in rows:
        row.pop("runtime_seconds")
        row.pop("cached")
        row.pop("seeds_recomputed")  # 0 for a hit, like "cached"
        if row["report"]:
            row["report"].pop("runtime_seconds")
    return rows


def _sweep(designs, cache_dir, workers):
    with ResultStore(cache_dir) as store, BatchRunner(
        workers=workers, store=store
    ) as runner:
        return run_sweep(designs, CFG, GRID, runner)


def test_two_thread_sweep_matches_one_thread(small, tmp_path):
    """Two seed threads give the rows of one, point for point.  The
    2-thread sweep runs on an equal copy of the design, so it grows its
    orderings itself instead of reading the 1-thread run's from the
    ordering memo."""
    netlist, _ = small
    reference = _sweep([("d", netlist)], str(tmp_path / "serial"), workers=1)
    copy = pickle.loads(pickle.dumps(netlist))
    outcome = _sweep([("d", copy)], str(tmp_path / "threads"), workers=2)
    assert all(result.ok for result in outcome.job_results)
    assert _strip_volatile(point_rows(outcome)) == _strip_volatile(
        point_rows(reference)
    )


def _hits(outcome):
    return sum(1 for result in outcome.job_results if result.cached)


def test_rerun_is_warm_through_the_store(small, tmp_path):
    netlist, _ = small
    designs = [("d", netlist)]
    cache = str(tmp_path / "cache")
    cold = _sweep(designs, cache, workers=2)
    assert _hits(cold) == 0
    with ResultStore(cache) as store:
        assert all(job.fingerprint in store for job in cold.plan.jobs)
    # Any worker count replays warm: the store is not keyed by it.
    for workers in (2, 1):
        warm = _sweep(designs, cache, workers=workers)
        assert _hits(warm) == len(warm.plan.jobs)
        assert _strip_volatile(point_rows(warm)) == _strip_volatile(
            point_rows(cold)
        )


# ----------------------------------------------------------------------
# Store merge
# ----------------------------------------------------------------------
def _payload(tag):
    return {"tag": tag}


def test_merge_from_copies_and_combines(tmp_path):
    with ResultStore(str(tmp_path / "a")) as dest, ResultStore(
        str(tmp_path / "b")
    ) as src:
        dest.put_payload("f1", _payload("one"), kind="x")
        src.put_payload("f1", _payload("one"), kind="x")  # identical twin
        src.put_payload("f2", _payload("two"), kind="x")  # new row
        src.get_payload("f2")  # bump use_count to 1
        dest.get_payload("f1")  # dest use_count 1
        src.get_payload("f1")
        src.get_payload("f1")  # src use_count 2

        stats = dest.merge_from(src)
        assert (stats.copied, stats.merged, stats.conflicts) == (1, 1, 0)
        assert len(dest) == 2
        assert dest.get_payload("f2") == _payload("two")
        # Identical rows combine usage: 1 (dest) + 2 (src), +1 for the
        # get_payload assertion below.
        with dest._lock:
            count = dest._conn.execute(
                "SELECT use_count FROM results WHERE fingerprint = 'f1'"
            ).fetchone()[0]
        assert count == 3


def test_merge_from_accepts_a_path_and_counts_stale(tmp_path):
    src_dir = str(tmp_path / "src")
    with ResultStore(src_dir) as src:
        src.put_payload("fresh", _payload("ok"), kind=KIND_FINDER_REPORT)
        src.put_payload("old", _payload("stale"), kind=KIND_FINDER_REPORT)
        with src._lock:
            src._conn.execute(
                "UPDATE results SET schema_version = ? WHERE fingerprint = 'old'",
                (row_schema_version(KIND_FINDER_REPORT) - 1,),
            )
            src._conn.commit()
    with ResultStore(str(tmp_path / "dest")) as dest:
        stats = dest.merge_from(src_dir)
        assert stats.copied == 1
        assert stats.stale_skipped == 1
        assert "fresh" in dest and "old" not in dest


def test_merge_conflict_resolved_by_use_count_then_recency(tmp_path):
    with ResultStore(str(tmp_path / "a")) as dest, ResultStore(
        str(tmp_path / "b")
    ) as src:
        dest.put_payload("f", _payload("mine"), kind="x")
        src.put_payload("f", _payload("theirs"), kind="x")
        src.get_payload("f")  # src use_count 1 > dest 0
        stats = dest.merge_from(src)
        assert stats.conflicts == 1
        assert dest.get_payload("f") == _payload("theirs")

    with ResultStore(str(tmp_path / "c")) as dest, ResultStore(
        str(tmp_path / "d")
    ) as src:
        dest.put_payload("f", _payload("mine"), kind="x")
        dest.get_payload("f")
        dest.get_payload("f")  # dest use_count 2 wins
        src.put_payload("f", _payload("theirs"), kind="x")
        src.get_payload("f")
        stats = dest.merge_from(src)
        assert stats.conflicts == 1
        assert dest.get_payload("f") == _payload("mine")


def test_merge_ignores_report_runtime_only(tmp_path):
    """Finder reports that differ only in ``runtime_seconds`` merge; any
    other difference, or another kind, is still a conflict."""
    report = {"num_gtls": 1, "runtime_seconds": 0.5}
    with ResultStore(str(tmp_path / "a")) as dest, ResultStore(
        str(tmp_path / "b")
    ) as src:
        for store, runtime in ((dest, 0.5), (src, 0.7)):
            store.put_payload("same", {**report, "runtime_seconds": runtime},
                              kind=KIND_FINDER_REPORT)
            store.put_payload("other", {**report, "num_gtls": runtime > 0.6},
                              kind=KIND_FINDER_REPORT)
            store.put_payload("x", {**report, "runtime_seconds": runtime}, kind="x")
        stats = dest.merge_from(src)
        assert (stats.merged, stats.conflicts) == (1, 2)
        assert dest.peek_payload("same", KIND_FINDER_REPORT)["runtime_seconds"] == 0.5


def test_peek_payload_reads_without_bookkeeping(tmp_path):
    with ResultStore(str(tmp_path)) as store:
        store.put_payload("f", _payload("one"), kind="x")
        assert store.peek_payload("f", "x") == _payload("one")
        assert store.peek_payload("f", "y") is None  # another kind
        assert store.peek_payload("absent", "x") is None
        assert (store.stats.hits, store.stats.misses) == (0, 0)
        with store._lock:
            count = store._conn.execute(
                "SELECT use_count FROM results WHERE fingerprint = 'f'"
            ).fetchone()[0]
        assert count == 0 and "f" in store


def test_merge_stats_combined():
    total = MergeStats(copied=1, merged=2).combined(
        MergeStats(conflicts=3, stale_skipped=4)
    )
    assert (total.copied, total.merged, total.conflicts, total.stale_skipped) \
        == (1, 2, 3, 4)
    assert total.total == 10
    assert "1 copied" in total.summary()


# ----------------------------------------------------------------------
# Aggregate
# ----------------------------------------------------------------------
def test_aggregate_per_axis_and_schema(small, tmp_path):
    netlist, _ = small
    outcome = _sweep([("d", netlist)], str(tmp_path / "c"), workers=2)
    aggregate = aggregate_sweep(outcome)
    assert aggregate.points == 4 and aggregate.jobs == 4
    assert set(aggregate.per_axis) == {"lambda_skip", "min_gtl_size"}
    for values in aggregate.per_axis.values():
        assert sum(v["points"] for v in values.values()) == 4
        for value in values.values():
            assert value["ok"] == value["points"]
            assert value["mean_num_gtls"] > 0
    assert aggregate.wall_seconds == outcome.wall_seconds > 0

    path = str(tmp_path / "agg.json")
    write_aggregate(path, aggregate)
    data = json.load(open(path))
    assert data["schema"] == AGGREGATE_SCHEMA
    assert data["schema"] == 3
    assert data["cache"] == {"hits": 0, "misses": 4}
    assert not {"merge", "shards", "mode"} & set(data)


def test_aggregate_works_on_plain_outcome(small, tmp_path):
    netlist, _ = small
    with BatchRunner() as runner:
        outcome = run_sweep([("d", netlist)], CFG, {"lambda_skip": [0]}, runner)
    aggregate = aggregate_sweep(outcome)
    assert aggregate.points == 1
    assert aggregate.wall_seconds > 0


# ----------------------------------------------------------------------
# CLI round trips
# ----------------------------------------------------------------------
@pytest.fixture()
def sweep_manifest(tmp_path):
    netlist, _ = planted_gtl_graph(600, [50], seed=5)
    design = str(tmp_path / "d.hgr")
    write_hgr(netlist, design)
    manifest = tmp_path / "sweep.json"
    manifest.write_text(json.dumps({
        "designs": ["d.hgr"],
        "base": {"num_seeds": 4, "seed": 3},
        "grid": {"lambda_skip": [0, 10], "min_gtl_size": [20, 30]},
    }))
    return tmp_path, str(manifest)


def test_cli_sweep_thread_parity_and_aggregate(sweep_manifest, capsys):
    tmp_path, manifest = sweep_manifest
    single = str(tmp_path / "single.jsonl")
    threaded = str(tmp_path / "threaded.jsonl")
    aggregate = str(tmp_path / "agg.json")
    assert main(["sweep", manifest, "--quiet", "--jsonl", single,
                 "--cache-dir", str(tmp_path / "c1")]) == 0
    assert main(["sweep", manifest, "--quiet", "--workers", "2",
                 "--jsonl", threaded, "--aggregate", aggregate,
                 "--cache-dir", str(tmp_path / "c2")]) == 0
    out = capsys.readouterr().out
    assert "4 job(s): 0 cache hit(s), 4 computed, 0 failed" in out
    rows_single = _strip_volatile([json.loads(l) for l in open(single)])
    rows_threaded = _strip_volatile([json.loads(l) for l in open(threaded)])
    assert rows_threaded == rows_single
    data = json.load(open(aggregate))
    assert data["points"] == 4 and data["failed_points"] == 0
    assert data["schema"] == AGGREGATE_SCHEMA and data["wall_seconds"] > 0


def test_batch_then_sweep_on_one_cache_dir_is_all_hits(
    sweep_manifest, capsys
):
    tmp_path, manifest = sweep_manifest
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps({
        "defaults": {"num_seeds": 4, "seed": 3},
        "jobs": [
            {"design": "d.hgr", "lambda_skip": skip, "min_gtl_size": size}
            for skip in (0, 10) for size in (20, 30)
        ],
    }))
    cache = str(tmp_path / "c")
    aggregate = str(tmp_path / "agg.json")
    assert main(["batch", str(batch), "--quiet", "--cache-dir", cache]) == 0
    capsys.readouterr()
    assert main(["sweep", manifest, "--quiet", "--workers", "2",
                 "--cache-dir", cache, "--aggregate", aggregate]) == 0
    out = capsys.readouterr().out
    assert "4 job(s): 4 cache hit(s), 0 computed, 0 failed" in out
    assert "conflict" not in out
    assert json.load(open(aggregate))["cache"] == {"hits": 4, "misses": 0}
    # The store, and the pack of the one design the batch recorded.
    assert sorted(os.listdir(cache)) == sorted(
        name for name in os.listdir(cache)
        if name.startswith("results.sqlite") or name == "designs"
    )
    assert len(os.listdir(os.path.join(cache, "designs"))) == 1


def test_cli_cache_merge(sweep_manifest, capsys):
    tmp_path, manifest = sweep_manifest
    other = tmp_path / "other.json"
    other.write_text(json.dumps({
        "designs": ["d.hgr"],
        "base": {"num_seeds": 4, "seed": 3},
        "grid": {"lambda_skip": [0, 5]},
    }))
    first, second = str(tmp_path / "c1"), str(tmp_path / "c2")
    rows_first, rows_second = str(tmp_path / "1.jsonl"), str(tmp_path / "2.jsonl")
    assert main(["sweep", manifest, "--quiet", "--workers", "2",
                 "--cache-dir", first, "--jsonl", rows_first]) == 0
    assert main(["sweep", str(other), "--quiet",
                 "--cache-dir", second, "--jsonl", rows_second]) == 0
    capsys.readouterr()
    dest = str(tmp_path / "merged")
    assert main(["cache", "merge", first, second, "--cache-dir", dest]) == 0
    out = capsys.readouterr().out
    fingerprints = {
        json.loads(line)["fingerprint"]
        for path in (rows_first, rows_second)
        for line in open(path)
    }
    # Each job's report, and the seed trace and head pointer of its run.
    assert f"0 -> {3 * len(fingerprints)} entr(ies)" in out
    # The point both sweeps ran (lambda_skip 0, the default min_gtl_size)
    # merges its report, seed trace and head pointer: the two reports
    # differ only in their wall-clock runtime_seconds.
    assert "3 merged, 0 conflict(s)" in out.splitlines()[-1]
    with ResultStore(dest) as store:
        assert store.kind_counts()["finder_report"] == len(fingerprints)
        assert all(fp in store for fp in fingerprints)


def test_cli_sweep_unknown_axis_lists_fields(sweep_manifest, capsys):
    tmp_path, _ = sweep_manifest
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "designs": ["d.hgr"], "base": {"seed": 1},
        "grid": {"bogus_axis": [1]},
    }))
    assert main(["sweep", str(bad), "--no-cache", "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "bogus_axis" in err and "valid fields" in err
    assert "num_seeds" in err and "lambda_skip" in err


@pytest.mark.parametrize(
    "flags",
    [["--workers", "4"], ["--cache-dir", "elsewhere"], ["--no-cache"]],
    ids=["workers", "cache-dir", "no-cache"],
)
def test_cli_via_daemon_refuses_local_execution_flags(sweep_manifest, capsys, flags):
    """The daemon's pool and store run a ``--via-daemon`` sweep, so the
    local execution flags are a usage error naming the flag, raised before
    any daemon is contacted."""
    tmp_path, manifest = sweep_manifest
    socket_path = str(tmp_path / "no-daemon.sock")
    assert main(["sweep", manifest, "--via-daemon", "--socket", socket_path,
                 "--quiet", *flags]) == 2
    captured = capsys.readouterr()
    assert f"--via-daemon cannot be combined with {flags[0]}" in captured.err
    assert "job(s)" not in captured.out
    assert not os.path.exists(tmp_path / "elsewhere")
