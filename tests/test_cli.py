"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import build_parser, main
from repro.generators.random_gtl import planted_gtl_graph
from repro.io.hgr import write_hgr


@pytest.fixture
def planted_hgr(tmp_path):
    netlist, truth = planted_gtl_graph(1200, [80], seed=1)
    path = str(tmp_path / "g.hgr")
    write_hgr(netlist, path)
    return path, truth


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


@pytest.mark.parametrize("verb", ["find-gtl", "store"])
def test_folded_verbs_are_gone(verb, capsys):
    # find-gtl is `detect --no-cache`; store merge is `cache merge`.
    with pytest.raises(SystemExit):
        build_parser().parse_args([verb, "x"])
    assert "invalid choice" in capsys.readouterr().err


def test_detect_no_cache_on_hgr(planted_hgr, capsys):
    path, truth = planted_hgr
    code = main(["detect", path, "--seeds", "12", "--seed", "3", "--no-cache"])
    assert code == 0
    output = capsys.readouterr().out
    assert "GTL" in output
    assert str(len(truth[0])) in output


def test_detect_writes_output(planted_hgr, tmp_path, capsys):
    path, _ = planted_hgr
    out = str(tmp_path / "gtls.txt")
    code = main(["detect", path, "--seeds", "12", "--seed", "3", "--no-cache",
                 "--out", out])
    assert code == 0
    assert os.path.exists(out)
    assert "GTL 1" in open(out).read()


def test_detect_no_cache_on_edgelist(tmp_path, capsys):
    edges = tmp_path / "g.edges"
    lines = [f"a{i} a{i + 1}" for i in range(40)]
    edges.write_text("\n".join(lines))
    code = main(["detect", str(edges), "--seeds", "4", "--seed", "1", "--no-cache"])
    assert code == 0


def test_generate_planted(tmp_path, capsys):
    out = str(tmp_path / "bench")
    code = main(
        ["generate", "planted", "--cells", "500", "--gtl-sizes", "40",
         "--seed", "2", "--out", out]
    )
    assert code == 0
    assert os.path.exists(os.path.join(out, "planted.aux"))


def test_generate_ispd(tmp_path, capsys):
    out = str(tmp_path / "bench")
    code = main(["generate", "ispd", "--scale", "0.05", "--seed", "2", "--out", out])
    assert code == 0
    assert os.path.exists(os.path.join(out, "ispd.aux"))


def test_generate_then_find(tmp_path, capsys):
    out = str(tmp_path / "bench")
    assert main(["generate", "planted", "--cells", "800", "--gtl-sizes", "60",
                 "--seed", "4", "--out", out]) == 0
    aux = os.path.join(out, "planted.aux")
    assert main(["detect", aux, "--seeds", "8", "--seed", "5", "--no-cache"]) == 0
    output = capsys.readouterr().out
    assert "GTL" in output


def test_experiment_fig2_with_csv(tmp_path, capsys, monkeypatch):
    # fig2 has fixed default sizes; shrink via monkeypatching defaults is
    # overkill — run the smallest harness through the CLI instead.
    import repro.experiments as experiments

    original = experiments.run_fig2

    def tiny_fig2(**kwargs):
        return original(num_cells=2000, gtl_size=150, seed=1)

    monkeypatch.setattr(experiments, "run_fig2", tiny_fig2)
    csv_path = str(tmp_path / "fig2.csv")
    code = main(["experiment", "fig2", "--csv", csv_path])
    assert code == 0
    assert os.path.exists(csv_path)


@pytest.fixture
def batch_setup(tmp_path):
    """Three small designs plus batch and sweep manifests."""
    import json

    designs = []
    for i in range(3):
        netlist, _ = planted_gtl_graph(700 + 40 * i, [50 + 5 * i], seed=i)
        path = str(tmp_path / f"d{i}.hgr")
        write_hgr(netlist, path)
        designs.append(f"d{i}.hgr")
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps({
        "defaults": {"num_seeds": 6, "seed": 1},
        "jobs": [{"design": d, "label": f"job{i}"} for i, d in enumerate(designs)],
    }))
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({
        "designs": designs[:2],
        "base": {"num_seeds": 4, "seed": 1},
        "grid": {"lambda_skip": [20, 20]},
    }))
    return tmp_path, str(batch), str(sweep)


def test_batch_cold_then_warm(batch_setup, capsys):
    tmp_path, batch, _ = batch_setup
    cache = str(tmp_path / "cache")
    assert main(["batch", batch, "--cache-dir", cache, "--quiet"]) == 0
    cold = capsys.readouterr().out
    assert "job0" in cold
    assert "3 job(s): 0 cache hit(s), 3 computed" in cold
    # Per computed job: its report, its seed trace and its head pointer.
    assert "9 put(s)" in cold

    assert main(["batch", batch, "--cache-dir", cache, "--quiet"]) == 0
    warm = capsys.readouterr().out
    assert "3 job(s): 3 cache hit(s), 0 computed" in warm
    assert "100% hit rate" in warm


def test_batch_no_cache_bypass(batch_setup, capsys):
    tmp_path, batch, _ = batch_setup
    cache = str(tmp_path / "cache")
    assert main(["batch", batch, "--cache-dir", cache, "--quiet"]) == 0
    capsys.readouterr()
    # --no-cache must recompute even though the cache is populated.
    assert main(["batch", batch, "--cache-dir", cache, "--no-cache", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "0 cache hit(s), 3 computed" in out
    assert "cache: cache disabled" in out


def test_batch_no_cache_creates_no_result_store(batch_setup, capsys):
    """--no-cache opens no store at all: nothing is looked up, put or
    even created under --cache-dir, and every run recomputes."""
    from repro.service.store import ResultStore

    tmp_path, batch, _ = batch_setup
    cache = tmp_path / "untouched"
    args = ["batch", batch, "--cache-dir", str(cache), "--no-cache", "--quiet"]
    for _ in range(2):
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "3 job(s): 0 cache hit(s), 3 computed" in out
    assert not (cache / ResultStore.DB_NAME).exists()
    assert not cache.exists()


def test_batch_with_an_empty_store_still_reports_it(batch_setup, capsys):
    # Unpinned seeds are never cached, so the store stays empty; an empty
    # store is still the cache, not "cache disabled".
    import json

    tmp_path, _, _ = batch_setup
    unpinned = tmp_path / "unpinned.json"
    unpinned.write_text(json.dumps({
        "defaults": {"num_seeds": 4}, "jobs": [{"design": "d0.hgr"}],
    }))
    cache = str(tmp_path / "cache")
    assert main(["batch", str(unpinned), "--cache-dir", cache, "--quiet"]) == 0
    assert "cache: 0 hit(s) / 0 miss(es)" in capsys.readouterr().out


def test_batch_jsonl_output(batch_setup, capsys):
    import json

    tmp_path, batch, _ = batch_setup
    out_path = str(tmp_path / "results.jsonl")
    assert main(["batch", batch, "--no-cache", "--quiet", "--jsonl", out_path]) == 0
    rows = [json.loads(line) for line in open(out_path)]
    assert len(rows) == 3
    assert rows[0]["label"] == "job0"
    assert rows[0]["report"]["config"]["num_seeds"] == 6
    assert len(rows[0]["fingerprint"]) == 64


def test_sweep_deduplicates_and_reports(batch_setup, capsys):
    tmp_path, _, sweep = batch_setup
    cache = str(tmp_path / "cache")
    assert main(["sweep", sweep, "--cache-dir", cache, "--quiet"]) == 0
    out = capsys.readouterr().out
    # 2 designs x 2 identical grid values -> 4 points, 2 distinct jobs.
    assert "4 grid point(s) -> 2 distinct job(s) (2 deduplicated)" in out


def test_batch_rejects_bad_manifest(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"jobs": "nope"}')
    assert main(["batch", str(bad), "--no-cache", "--quiet"]) == 2
    assert "error" in capsys.readouterr().err

    bad.write_text('{"jobs": [{"design": "x.hgr", "bogus_field": 1}]}')
    assert main(["batch", str(bad), "--no-cache", "--quiet"]) == 2
    assert "bogus_field" in capsys.readouterr().err

    bad.write_text('{"defaults": ["num_seeds", 16], "jobs": [{"design": "x.hgr"}]}')
    assert main(["batch", str(bad), "--no-cache", "--quiet"]) == 2
    assert "defaults" in capsys.readouterr().err

    bad.write_text('{"jobs": [{"design": "missing.hgr"}]}')
    assert main(["batch", str(bad), "--no-cache", "--quiet"]) == 2
    assert "does not exist" in capsys.readouterr().err

    bad.write_text('{"jobs": [{"design": 42}]}')
    assert main(["batch", str(bad), "--no-cache", "--quiet"]) == 2
    assert 'string "design"' in capsys.readouterr().err

    bad.write_text('{"designs": [42], "grid": {"num_seeds": [4]}}')
    assert main(["sweep", str(bad), "--no-cache", "--quiet"]) == 2
    assert "must be a string" in capsys.readouterr().err


def test_cli_reports_repro_errors(tmp_path, capsys):
    bad = tmp_path / "bad.hgr"
    bad.write_text("bogus header\n")
    code = main(["detect", str(bad), "--no-cache"])
    assert code == 2
    assert "error" in capsys.readouterr().err


# ----------------------------------------------------------------------
# diff / detect / cache (incremental detection surface)
# ----------------------------------------------------------------------
def test_cli_diff_detect_cache_roundtrip(tmp_path, capsys):
    import json

    from repro.generators.perturb import rewire_pins
    from repro.io import load_design

    netlist, _ = planted_gtl_graph(800, [60], seed=5)
    base_path = str(tmp_path / "base.hgr")
    write_hgr(netlist, base_path)
    base = load_design(base_path)
    edited_path = str(tmp_path / "edited.hgr")
    write_hgr(rewire_pins(base, 0.001, rng=1), edited_path)

    delta_json = str(tmp_path / "delta.json")
    assert main(["diff", base_path, edited_path, "--json", delta_json]) == 0
    out = capsys.readouterr().out
    assert "delta:" in out and "delta fingerprint:" in out
    with open(delta_json) as handle:
        assert json.load(handle)["version"] == 1

    cache = str(tmp_path / "cache")
    common = ["--seeds", "6", "--seed", "3", "--max-order-length", "20",
              "--cache-dir", cache]
    assert main(["detect", base_path] + common) == 0
    assert "full recompute" in capsys.readouterr().out
    assert main(["detect", base_path] + common) == 0
    assert "cached" in capsys.readouterr().out
    assert main(["detect", edited_path, "--base", base_path] + common) == 0
    out = capsys.readouterr().out
    assert "incremental:" in out and "seed(s) re-run" in out
    assert "base fingerprint:" in out

    assert main(["cache", "stats", "--cache-dir", cache]) == 0
    out = capsys.readouterr().out
    assert "finder_trace" in out and "incremental_head" in out
    assert main(["cache", "prune", "--keep", "1", "--cache-dir", cache]) == 0
    assert "pruned" in capsys.readouterr().out


def test_cli_batch_patches_an_edit_after_its_base(tmp_path, capsys):
    """A batch that lists a design and then a pin-only edit of it patches
    the edit from the base's traced run, as ``repro detect`` does, and
    the patched report equals the one a ``--no-cache`` batch computes."""
    import json

    from repro.generators.perturb import rewire_pins
    from repro.io import load_design

    netlist, _ = planted_gtl_graph(800, [60], seed=5)
    write_hgr(netlist, str(tmp_path / "base.hgr"))
    base = load_design(str(tmp_path / "base.hgr"))
    write_hgr(rewire_pins(base, 0.001, rng=1), str(tmp_path / "edited.hgr"))
    manifest = tmp_path / "batch.json"
    manifest.write_text(json.dumps({
        "defaults": {"num_seeds": 6, "seed": 3, "max_order_length": 20},
        "jobs": [{"design": "base.hgr"}, {"design": "edited.hgr"}],
    }))

    def rows(*flags):
        out = str(tmp_path / f"rows{len(flags)}.jsonl")
        assert main(["batch", str(manifest), "--quiet", "--jsonl", out, *flags]) == 0
        with open(out) as handle:
            return [json.loads(line) for line in handle]

    base_row, edit_row = rows("--cache-dir", str(tmp_path / "cache"))
    assert base_row["incremental_mode"] == "full"
    assert base_row["seeds_recomputed"] == base_row["seeds_total"] == 6
    assert edit_row["incremental_mode"] == "incremental"
    assert 0 < edit_row["seeds_recomputed"] < edit_row["seeds_total"] == 6

    _, cold_row = rows("--no-cache")
    assert cold_row["incremental_mode"] == "full"
    for row in (edit_row, cold_row):
        row["report"].pop("runtime_seconds")
    assert edit_row["report"] == cold_row["report"]
    capsys.readouterr()


def test_cli_pack_cache_dir_is_the_detect_base_store(tmp_path, capsys):
    """One pack store per cache dir: a design pre-packed by ``pack
    --cache-dir C`` is the pack a detect in ``C`` finds (it is not written
    again), and an edit names it as ``--base <fingerprint>``."""
    import json

    from repro.generators.perturb import rewire_pins
    from repro.io import load_design
    from repro.service import ResultStore, designs, fingerprint_netlist

    netlist, _ = planted_gtl_graph(800, [60], seed=5)
    base_path = str(tmp_path / "base.hgr")
    write_hgr(netlist, base_path)
    base = load_design(base_path)
    edited_path = str(tmp_path / "edited.hgr")
    write_hgr(rewire_pins(base, 0.001, rng=1), edited_path)
    manifest = tmp_path / "designs.json"
    manifest.write_text(json.dumps(["base.hgr"]))

    cache = str(tmp_path / "cache")
    assert main(["pack", str(manifest), "--cache-dir", cache]) == 0
    assert "1 packed" in capsys.readouterr().out
    base_fp = fingerprint_netlist(base)
    with ResultStore(cache) as store:
        pack = designs.pack_path(store, base_fp)
    before = os.stat(pack)

    common = ["--seeds", "6", "--seed", "3", "--max-order-length", "20",
              "--cache-dir", cache]
    assert main(["detect", base_path] + common) == 0
    assert "full recompute" in capsys.readouterr().out
    after = os.stat(pack)
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    assert main(["detect", edited_path, "--base", base_fp] + common) == 0
    out = capsys.readouterr().out
    assert "incremental:" in out and "seed(s) re-run" in out
    assert f"base fingerprint: {base_fp[:12]}" in out


def test_cli_cache_stats_and_prune_keep_referenced_designs(tmp_path, capsys):
    """A detect of a live ``.nla`` records it by reference and an edit
    patched against it as an edit: ``cache stats`` counts both and no pack,
    and ``cache prune --keep 0`` leaves the referenced file as it was."""
    import hashlib

    from repro.generators.perturb import rewire_pins
    from repro.io import load_design, write_packed

    netlist, _ = planted_gtl_graph(800, [60], seed=5)
    write_hgr(netlist, str(tmp_path / "base.hgr"))
    base = load_design(str(tmp_path / "base.hgr"))
    base_path = str(tmp_path / "base.nla")
    write_packed(base, base_path)
    edited_path = str(tmp_path / "edited.hgr")
    write_hgr(rewire_pins(base, 0.001, rng=1), edited_path)

    cache = str(tmp_path / "cache")
    common = ["--seeds", "6", "--seed", "3", "--max-order-length", "20",
              "--cache-dir", cache]
    assert main(["detect", base_path] + common) == 0
    assert main(["detect", edited_path, "--base", base_path] + common) == 0
    assert "incremental:" in capsys.readouterr().out
    assert main(["cache", "stats", "--cache-dir", cache]) == 0
    assert "designs: 0 pack(s) (0.0 MB), 1 reference(s), 1 edit(s)" in (
        capsys.readouterr().out
    )

    def state():
        stat = os.stat(base_path)
        with open(base_path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        return stat.st_ino, stat.st_mtime_ns, stat.st_size, digest

    before = state()
    assert main(["cache", "prune", "--keep", "0", "--cache-dir", cache]) == 0
    assert "0 kept" in capsys.readouterr().out
    assert state() == before


def test_cli_diff_identical_designs(tmp_path, capsys):
    netlist, _ = planted_gtl_graph(300, [40], seed=2)
    path = str(tmp_path / "same.hgr")
    write_hgr(netlist, path)
    assert main(["diff", path, path]) == 0
    assert "netlists identical" in capsys.readouterr().out


def test_cli_detect_workers_patches_on_the_pool(tmp_path, capsys, monkeypatch):
    """``detect --workers 2`` runs an incremental patch's dirty seeds on
    its pool, and the patched report equals a serial cold run."""
    from repro.finder import FinderConfig, TangledLogicFinder
    from repro.generators.perturb import rewire_pins
    from repro.io import load_design
    from repro.service import ResultStore, job_fingerprint
    from repro.service import pool as pool_module
    from repro.service.codec import report_to_dict

    pools = []

    class RecordingPool(pool_module.WorkerPool):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    monkeypatch.setattr(pool_module, "WorkerPool", RecordingPool)

    netlist, _ = planted_gtl_graph(800, [60], seed=5)
    base_path = str(tmp_path / "base.hgr")
    write_hgr(netlist, base_path)
    edited_path = str(tmp_path / "edited.hgr")
    write_hgr(rewire_pins(load_design(base_path), 0.003, rng=1), edited_path)

    cache = str(tmp_path / "cache")
    common = ["--seeds", "8", "--seed", "3", "--max-order-length", "20",
              "--cache-dir", cache, "--workers", "2"]
    assert main(["detect", base_path] + common) == 0
    assert "full recompute" in capsys.readouterr().out
    assert main(["detect", edited_path] + common) == 0
    out = capsys.readouterr().out
    assert "incremental: 4/8 seed(s) re-run" in out
    assert [pool.workers for pool in pools] == [2, 2]
    assert pools[1].stats.batches > 0

    edited = load_design(edited_path)
    config = FinderConfig(num_seeds=8, seed=3, max_order_length=20)
    cold = report_to_dict(TangledLogicFinder(edited, config).run())
    with ResultStore(cache) as store:
        row = store.get_payload(job_fingerprint(edited, config), kind="finder_report")
    assert {**row, "runtime_seconds": 0} == {**cold, "runtime_seconds": 0}


@pytest.mark.parametrize(
    "verb, manifest",
    [
        ("batch", {"defaults": {"workers": 2}, "jobs": [{"design": "g.hgr"}]}),
        ("batch", {"jobs": [{"design": "g.hgr", "workers": 2}]}),
        ("sweep", {"designs": ["g.hgr"], "base": {"workers": 2},
                   "grid": {"seed": [1]}}),
    ],
)
def test_manifests_naming_workers_are_rejected(
    verb, manifest, planted_hgr, tmp_path, capsys
):
    """``workers`` is the verb's ``--workers`` flag, not a config field: a
    manifest that names it fails loudly instead of being ignored."""
    import json

    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert main([verb, str(path), "--no-cache", "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "unknown FinderConfig field" in err and "workers" in err


def test_cli_pack_and_detect_from_packed(planted_hgr, tmp_path, capsys):
    source, _ = planted_hgr
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


def test_cli_pack_default_output_path(planted_hgr, tmp_path, capsys):
    source, _ = planted_hgr
    assert main(["pack", source]) == 0
    assert os.path.exists(str(tmp_path / "g.nla"))
