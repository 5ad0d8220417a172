"""Tests of the composable stage API (:mod:`repro.flow`)."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.errors import FinderError, FlowError, ParseError
from repro.finder import FinderConfig, find_tangled_logic
from repro.flow import (
    CongestionStage,
    DetectStage,
    Flow,
    PartitionConfig,
    PartitionStage,
    PlaceStage,
    ResynthesisStage,
    SoftBlocksStage,
    encode_artifact,
    flow_from_manifest,
)
from repro.generators.random_gtl import planted_gtl_graph
from repro.service import ResultStore, fingerprint_netlist
from repro.service.store import SCHEMA_VERSION

CFG = FinderConfig(num_seeds=6, seed=3)


@pytest.fixture(scope="module")
def small():
    netlist, truth = planted_gtl_graph(800, [60], seed=5)
    return netlist, truth


def _pipeline():
    return Flow(
        [
            DetectStage(CFG),
            PartitionStage(),
            PlaceStage(),
            CongestionStage(grid=(8, 8)),
        ]
    )


# ----------------------------------------------------------------------
# Stage fingerprints
# ----------------------------------------------------------------------
def test_stage_fingerprints_depend_on_config_and_upstream(small):
    netlist, _ = small
    base = _pipeline().run(netlist)
    # Changing a mid-flow config re-keys that stage and everything after it,
    # but not the stages before it.
    changed = Flow(
        [
            DetectStage(CFG),
            PartitionStage(balance_tolerance=0.2),
            PlaceStage(),
            CongestionStage(grid=(8, 8)),
        ]
    ).run(netlist)
    assert changed["detect"].fingerprint == base["detect"].fingerprint
    assert changed["partition"].fingerprint != base["partition"].fingerprint
    assert changed["place"].fingerprint != base["place"].fingerprint
    assert changed["congestion"].fingerprint != base["congestion"].fingerprint


def test_stage_fingerprints_stable_across_processes(small):
    """The same flow over the same content must key identically in a fresh
    interpreter."""
    netlist, _ = small
    flow = _pipeline()
    local = [r.fingerprint for r in flow.run(netlist).results]
    script = (
        "from repro.generators.random_gtl import planted_gtl_graph\n"
        "from repro.finder import FinderConfig\n"
        "from repro.flow import (CongestionStage, DetectStage, Flow,\n"
        "                        PartitionStage, PlaceStage)\n"
        "netlist, _ = planted_gtl_graph(800, [60], seed=5)\n"
        "flow = Flow([DetectStage(FinderConfig(num_seeds=6, seed=3)),\n"
        "             PartitionStage(), PlaceStage(), CongestionStage(grid=(8, 8))])\n"
        "print('\\n'.join(r.fingerprint for r in flow.run(netlist).results))\n"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    output = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    ).stdout.split()
    assert output == local


def test_job_fingerprint_is_the_one_stage_detect_key(small):
    """Batch, daemon and the detect stage key a detection identically."""
    from repro.service import job_fingerprint

    netlist, _ = small
    cfg = FinderConfig(num_seeds=4, seed=3, max_order_length=20)
    expected = job_fingerprint(netlist, cfg)
    stage = DetectStage(cfg)
    (result,) = Flow([stage]).run(netlist).results
    assert result.fingerprint == expected
    assert Flow([stage]).fingerprints(fingerprint_netlist(netlist)) == [expected]


def test_manifest_and_api_share_one_fingerprint_space():
    """Configs built from JSON manifests (ints for floats, die as a list)
    must fingerprint identically to equal API-built configs."""
    from repro.flow import stage_from_entry
    from repro.placement.region import Die

    api = PlaceStage(die=Die(800.0, 600.0))
    manifest = stage_from_entry({"stage": "place", "die": [800, 600]})
    assert api.config_fingerprint() == manifest.config_fingerprint()
    assert (
        CongestionStage(capacity=1).config_fingerprint()
        == CongestionStage(capacity=1.0).config_fingerprint()
    )
    # Declared-int fields are not routed through float (would alias big seeds).
    big = 2**62 + 1
    assert (
        DetectStage(CFG.with_overrides(seed=big)).config_fingerprint()
        != DetectStage(CFG.with_overrides(seed=big + 1)).config_fingerprint()
    )


def test_place_stage_honors_pad_positions():
    from repro.netlist.builder import NetlistBuilder
    from repro.placement.region import Die

    builder = NetlistBuilder()
    pad_a = builder.add_cell("pad_a", fixed=True)
    pad_b = builder.add_cell("pad_b", fixed=True)
    cells = builder.add_cells(6)
    for cell in cells:
        builder.add_net(None, [pad_a, cell])
        builder.add_net(None, [cell, pad_b])
    netlist = builder.build()
    pads = {pad_a: (0.5, 0.5), pad_b: (7.5, 6.5)}
    placement = (
        Flow([PlaceStage(die=Die(10.0, 8.0), pad_positions=pads)])
        .run(netlist)
        .artifact("place")
    )
    for cell, (x, y) in pads.items():
        assert (placement.x[cell], placement.y[cell]) == (x, y)


# ----------------------------------------------------------------------
# Cache round-trips
# ----------------------------------------------------------------------
def test_cache_round_trip_bit_identical_every_stage(small, tmp_path):
    """Every built-in stage artifact must come back from the store
    bit-identical to the computed one."""
    netlist, truth = small
    flow = Flow(
        [
            DetectStage(CFG),
            PartitionStage(),
            SoftBlocksStage(groups=(tuple(truth[0]),), seed=1),
            PlaceStage(),
            CongestionStage(grid=(8, 8)),
            ResynthesisStage(cells=tuple(truth[0])),
        ]
    )
    with ResultStore(str(tmp_path)) as store:
        first = flow.run(netlist, store=store)
        assert not any(r.cached for r in first.results)
        second = flow.run(netlist, store=store)
    assert second.all_cached
    for computed, cached in zip(first.results, second.results):
        assert cached.fingerprint == computed.fingerprint
        # Bit-identity of the canonical payloads covers every array/float.
        assert encode_artifact(cached.kind, cached.artifact) == encode_artifact(
            computed.kind, computed.artifact
        )
    assert np.array_equal(first.artifact("place").x, second.artifact("place").x)
    assert first.artifact("detect") == second.artifact("detect")


def test_report_rows_are_bare_and_enveloped_rows_still_hit(small, tmp_path):
    """A detect row holds the plain report codec payload (the report JSON
    of batch output and daemon responses); a row that still carries the
    artifact envelope, as earlier flows wrote it, is a hit all the same."""
    from repro.service.codec import report_to_dict

    netlist, _ = small
    flow = Flow([DetectStage(CFG)])
    with ResultStore(str(tmp_path)) as store:
        (result,) = flow.run(netlist, store=store).results
        payload = report_to_dict(result.artifact)
        assert store.get_payload(result.fingerprint) == payload
        store.put_payload(
            result.fingerprint,
            {**payload, "codec_version": 1, "kind": "finder_report"},
            kind="finder_report",
        )
        (again,) = flow.run(netlist, store=store).results
        assert again.cached and again.artifact == result.artifact


def test_run_cached_answers_only_from_the_store(small, tmp_path, monkeypatch):
    """``run_cached`` computes nothing: ``None`` on a cold store or at a
    stale row (which it demotes), the flow's result when every row hits."""
    netlist, _ = small
    flow = Flow([DetectStage(CFG), PartitionStage()])
    with ResultStore(str(tmp_path)) as store:
        monkeypatch.setattr(
            DetectStage, "compute", lambda self, ctx: pytest.fail("computed")
        )
        assert flow.run_cached(fingerprint_netlist(netlist), store) is None
        monkeypatch.undo()

        ran = flow.run(netlist, store=store)
        warm = flow.run_cached(fingerprint_netlist(netlist), store)
        assert warm.all_cached
        assert warm.artifact("detect") == ran.artifact("detect")
        assert warm.artifact("partition").sides == ran.artifact("partition").sides

        partition_fp = ran["partition"].fingerprint
        store.put_payload(partition_fp, {"codec_version": 0}, kind="partition")
        assert flow.run_cached(fingerprint_netlist(netlist), store) is None
        assert partition_fp not in store


def test_nondeterministic_stage_is_not_cached(small, tmp_path):
    netlist, _ = small
    flow = Flow([DetectStage(num_seeds=2, seed=None)])
    with ResultStore(str(tmp_path)) as store:
        flow.run(netlist, store=store)
        flow.run(netlist, store=store)
        assert len(store) == 0
        assert store.stats.puts == 0


def test_nondeterminism_poisons_downstream_caching(small, tmp_path):
    """A stage after a nondeterministic one must not be cached either (its
    input is not content-stable)."""
    netlist, _ = small
    flow = Flow([DetectStage(num_seeds=2, seed=None), PartitionStage()])
    with ResultStore(str(tmp_path)) as store:
        result = flow.run(netlist, store=store)
        assert not result["partition"].cached
        assert len(store) == 0


def test_congestion_requires_upstream_placement(small):
    netlist, _ = small
    with pytest.raises(FlowError, match="upstream"):
        Flow([CongestionStage()]).run(netlist)


# ----------------------------------------------------------------------
# Store schema versioning
# ----------------------------------------------------------------------
def test_store_schema_version_mismatch_is_a_miss(small, tmp_path):
    """Rows written under an older schema version are evicted and
    rewritten, never mis-decoded."""
    netlist, _ = small
    flow = Flow([DetectStage(CFG)])
    with ResultStore(str(tmp_path)) as store:
        flow.run(netlist, store=store)
        # The report, plus the seed trace and head pointer of its run.
        assert len(store) == 3
        store._conn.execute("UPDATE results SET schema_version = ?", (SCHEMA_VERSION - 1,))
        store._conn.commit()
        result = flow.run(netlist, store=store)
        assert not result["detect"].cached  # old row did not answer the run
        assert store.stats.puts == 6  # and every row was rewritten
        rows = store._conn.execute("SELECT DISTINCT schema_version FROM results").fetchall()
        assert rows == [(SCHEMA_VERSION,)]


def test_store_kind_revision_invalidates_only_that_kind(small, tmp_path):
    """Pre-revision partition rows (written before the PR-5 FM-start fix
    changed partition outputs) read as misses, while detection rows at the
    same base version stay warm."""
    from repro.flow.stages import PartitionStage
    from repro.service.store import row_schema_version

    netlist, _ = small
    flow = Flow([DetectStage(CFG), PartitionStage(seed=1)])
    with ResultStore(str(tmp_path)) as store:
        flow.run(netlist, store=store)
        assert row_schema_version("partition") == SCHEMA_VERSION + 1
        # Emulate a row persisted by the pre-fix release (base version).
        store._conn.execute(
            "UPDATE results SET schema_version = ? WHERE kind = 'partition'",
            (SCHEMA_VERSION,),
        )
        store._conn.commit()
        result = flow.run(netlist, store=store)
        assert result["detect"].cached  # unaffected kind stays warm
        assert not result["partition"].cached  # stale pre-fix row evicted
        row = store._conn.execute(
            "SELECT schema_version FROM results WHERE kind = 'partition'"
        ).fetchone()
        assert row[0] == row_schema_version("partition")


def test_store_kind_collision_is_a_miss(small, tmp_path):
    netlist, _ = small
    with ResultStore(str(tmp_path)) as store:
        result = Flow([DetectStage(CFG)]).run(netlist, store=store)
        fingerprint = result["detect"].fingerprint
        store._conn.execute(
            "UPDATE results SET kind = 'placement' WHERE fingerprint = ?", (fingerprint,)
        )
        store._conn.commit()
        assert store.get_payload(fingerprint, kind="finder_report") is None
        assert fingerprint not in store


# ----------------------------------------------------------------------
# Config override validation
# ----------------------------------------------------------------------
def test_finder_config_rejects_unknown_overrides():
    with pytest.raises(FinderError, match=r"num_seeds.*metric"):
        FinderConfig().with_overrides(num_seedz=4)


def test_stage_config_rejects_unknown_overrides():
    with pytest.raises(FlowError, match=r"balance_tolerance.*max_passes"):
        PartitionConfig().with_overrides(tolerance=0.2)
    with pytest.raises(FlowError, match="valid fields"):
        PlaceStage(utilisation=0.5)


# ----------------------------------------------------------------------
# Manifests + CLI
# ----------------------------------------------------------------------
def _write_manifest(tmp_path, netlist):
    from repro.io.hgr import write_hgr

    design = tmp_path / "design.hgr"
    write_hgr(netlist, str(design))
    manifest = tmp_path / "flow.json"
    manifest.write_text(
        json.dumps(
            {
                "designs": ["design.hgr"],
                "stages": [
                    {"stage": "detect", "num_seeds": 6, "seed": 3},
                    {"stage": "partition"},
                    {"stage": "place"},
                    {"stage": "congestion", "grid": [8, 8]},
                ],
            }
        )
    )
    return manifest


def test_flow_manifest_parses_and_runs(small, tmp_path):
    netlist, _ = small
    manifest = flow_from_manifest(
        json.loads(_write_manifest(tmp_path, netlist).read_text()),
        base_dir=str(tmp_path),
    )
    assert [s.name for s in manifest.flow.stages] == [
        "detect", "partition", "place", "congestion",
    ]
    result = manifest.flow.run(netlist)
    assert result["congestion"].artifact.demand.shape == (8, 8)


def test_flow_manifest_rejects_unknown_stage():
    with pytest.raises(FlowError, match="available stages"):
        flow_from_manifest({"designs": ["x.hgr"], "stages": [{"stage": "routeit"}]})


def test_flow_manifest_rejects_unknown_field():
    with pytest.raises(FlowError, match="valid fields"):
        flow_from_manifest(
            {"designs": ["x.hgr"], "stages": [{"stage": "partition", "tol": 0.2}]}
        )


@pytest.mark.parametrize(
    "key, value",
    [("base", "base.hgr"), ("base_fingerprint", "0" * 64), ("delta", {})],
)
def test_flow_manifest_cannot_set_the_incremental_base(key, value):
    """The base of an incremental detect is set in-process only."""
    with pytest.raises(FinderError, match="unknown FinderConfig field"):
        flow_from_manifest({
            "designs": ["x.hgr"],
            "stages": [{"stage": "detect", key: value}],
        })


@pytest.mark.parametrize(
    "stage, key",
    [
        ("detect", "workers"),
        ("detect", "halo"),
        ("detect", "full_threshold"),
    ],
)
def test_flow_manifest_rejects_removed_detect_knobs(stage, key):
    """Pool size and reuse tuning are not stage fields: a manifest that
    names one gets the typed unknown-field error, not silence."""
    with pytest.raises(FinderError, match=f"unknown FinderConfig field.*'{key}'"):
        flow_from_manifest({"designs": ["x.hgr"], "stages": [{"stage": stage, key: 1}]})


def test_flow_manifest_naming_the_removed_incremental_stage_fails():
    """``detect`` is the one detection stage (it patches edits itself): a
    manifest still naming ``incremental_detect`` gets the typed
    unknown-stage error listing the stages there are."""
    from repro.flow import BUILTIN_STAGES

    with pytest.raises(FlowError, match="unknown stage 'incremental_detect'") as raised:
        flow_from_manifest(
            {"designs": ["x.hgr"], "stages": [{"stage": "incremental_detect"}]}
        )
    assert "incremental_detect" not in BUILTIN_STAGES
    assert all(name in str(raised.value) for name in BUILTIN_STAGES)


def test_report_row_with_a_workers_config_is_demoted_and_rewritten(small, tmp_path):
    """A report row stored while ``FinderConfig`` still had ``workers``
    fails to decode with a typed error; the flow demotes it, recomputes,
    rewrites the row, and the next lookup hits."""
    from repro.errors import ServiceError
    from repro.service import job_fingerprint, report_from_dict, report_to_dict

    netlist, _ = small
    key = job_fingerprint(netlist, CFG)
    old_row = report_to_dict(find_tangled_logic(netlist, CFG))
    old_row["config"]["workers"] = 1
    with pytest.raises(ServiceError, match="unknown FinderConfig fields"):
        report_from_dict(old_row)
    with ResultStore(str(tmp_path)) as store:
        store.put_payload(key, old_row, kind="finder_report")
        (first,) = Flow([DetectStage(CFG)]).run(netlist, store=store).results
        assert not first.cached
        # Misses: the demoted report row, then the run's head pointer.
        assert (store.stats.hits, store.stats.misses) == (0, 2)
        assert "workers" not in store.get_payload(key, kind="finder_report")["config"]
        (second,) = Flow([DetectStage(CFG)]).run(netlist, store=store).results
        assert second.cached
    assert second.artifact == first.artifact
    assert first.artifact.config == CFG


def test_cli_flow_run_cold_then_warm(small, tmp_path, capsys):
    from repro.cli import main

    netlist, _ = small
    manifest = _write_manifest(tmp_path, netlist)
    cache = str(tmp_path / "cache")
    assert main(["flow", "run", str(manifest), "--cache-dir", cache, "--quiet"]) == 0
    cold = capsys.readouterr().out
    assert cold.count(" run ") >= 4 and "0 hit(s)" in cold
    assert main(["flow", "run", str(manifest), "--cache-dir", cache, "--quiet"]) == 0
    warm = capsys.readouterr().out
    assert warm.count(" hit ") >= 4
    assert "4 hit(s) / 0 miss(es)" in warm


def test_cli_flow_run_reports_bad_manifest(tmp_path, capsys):
    from repro.cli import main

    bad = tmp_path / "bad.json"
    bad.write_text('{"designs": ["x.hgr"], "stages": []}')
    assert main(["flow", "run", str(bad), "--no-cache", "--quiet"]) == 2
    assert "no stages" in capsys.readouterr().err


# ----------------------------------------------------------------------
# load_design dispatch
# ----------------------------------------------------------------------
def test_load_design_dispatch(small, tmp_path):
    from repro.io import load_design
    from repro.io.hgr import read_hgr, write_hgr

    netlist, _ = small
    path = tmp_path / "d.hgr"
    write_hgr(netlist, str(path))
    # Dispatches to the hgr reader (same content fingerprint).
    assert fingerprint_netlist(load_design(str(path))) == fingerprint_netlist(
        read_hgr(str(path))
    )
    edges = tmp_path / "d.edges"
    edges.write_text("a b\nb c\n")
    assert load_design(str(edges)).num_cells == 3


def test_load_design_unknown_extension(tmp_path):
    from repro.io import load_design

    path = tmp_path / "design.xyz"
    path.write_text("whatever")
    with pytest.raises(ParseError, match=r"\.aux.*\.hgr.*edge list"):
        load_design(str(path))


def test_load_design_missing_file(tmp_path):
    from repro.io import load_design

    with pytest.raises(ParseError, match="does not exist"):
        load_design(str(tmp_path / "nope.hgr"))


# ----------------------------------------------------------------------
# Facade
# ----------------------------------------------------------------------
def test_repro_facade_reexports_flow_api():
    import repro

    assert repro.Flow is Flow
    assert repro.DetectStage is DetectStage
    assert callable(repro.load_design)
    with pytest.raises(AttributeError):
        repro.not_a_symbol


def test_flow_detect_matches_plain_finder(small):
    from repro.flow import detect

    netlist, _ = small
    assert detect(netlist, CFG, cache_dir="").gtls == find_tangled_logic(netlist, CFG).gtls


# ----------------------------------------------------------------------
# Incremental detection stage
# ----------------------------------------------------------------------
def test_incremental_detect_stage_patches_across_edits(small, tmp_path):
    from repro.generators.perturb import rewire_pins
    from repro.service.codec import report_to_dict

    netlist, _ = small
    cfg = FinderConfig(num_seeds=6, seed=3, max_order_length=20)
    with ResultStore(str(tmp_path)) as store:
        first = Flow([DetectStage(cfg)]).run(netlist, store=store)
        result = first["detect"]
        assert result.metadata["incremental_mode"] == "full"
        assert result.metadata["seeds_recomputed"] == cfg.num_seeds

        edited = rewire_pins(netlist, 0.001, rng=1)
        second = Flow([DetectStage(cfg)]).run(edited, store=store)
        meta = second["detect"].metadata
        assert meta["incremental_mode"] == "incremental"
        assert 0 < meta["seeds_recomputed"] < meta["seeds_total"]
        assert meta["dirty_cells"] > 0

        # Parity: the patched stage artifact equals a cold detection.
        cold = report_to_dict(find_tangled_logic(edited, cfg))
        patched = report_to_dict(second["detect"].artifact)
        cold.pop("runtime_seconds")
        patched.pop("runtime_seconds")
        assert patched == cold


def test_cold_incremental_detect_stores_its_report_once(small, tmp_path):
    """One lookup and one put of the report (the flow's), plus the engine's
    head lookup and its trace and head puts."""
    netlist, _ = small
    cfg = FinderConfig(num_seeds=4, seed=3, max_order_length=20)
    with ResultStore(str(tmp_path)) as store:
        Flow([DetectStage(cfg)]).run(netlist, store=store)
        assert store.kind_counts()["finder_report"] == 1
        assert (store.stats.misses, store.stats.puts) == (2, 3)


def test_incremental_detect_stage_without_store_runs_full(small):
    netlist, _ = small
    cfg = FinderConfig(num_seeds=4, seed=3, max_order_length=20)
    result = Flow([DetectStage(cfg)]).run(netlist)
    report = result["detect"].artifact
    assert report.gtls == find_tangled_logic(netlist, cfg).gtls
    meta = result["detect"].metadata
    assert (meta["incremental_mode"], meta["incremental_reason"]) == (
        "full", "no result store"
    )
    assert meta["seeds_recomputed"] == meta["seeds_total"] == cfg.num_seeds
