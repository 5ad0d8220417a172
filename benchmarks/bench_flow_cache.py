"""Per-stage flow caching: cold vs. warm (the tentpole's payoff).

Runs a [detect -> partition -> place -> congestion] flow on one generated
design end-to-end **from the CLI** (``flow run``), then again with the same
``--cache-dir``: the second run must report a cache hit for every stage.
The same flow is then replayed through the API to assert the cached
artifacts are bit-identical to the computed ones (canonical JSON payload
equality covers every float and array).

``REPRO_BENCH_SMOKE=1`` shrinks the design to CI-smoke size and skips the
speedup floor; the hit-rate and bit-identity checks always run.
"""

import json
import os
import time

from repro.cli import main
from repro.flow import (
    CongestionStage,
    DetectStage,
    Flow,
    PartitionStage,
    PlaceStage,
    encode_artifact,
)
from repro.finder import FinderConfig
from repro.generators.random_gtl import planted_gtl_graph
from repro.io import load_design
from repro.io.hgr import write_hgr
from repro.service import ResultStore

# The FM partition stage is the cold run's dominant cost and scales
# super-linearly, so the full-size design stays at ~2K cells.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
NUM_CELLS = 1_000 if SMOKE else 2_000
NUM_SEEDS = 6 if SMOKE else 16
CONFIG = FinderConfig(num_seeds=NUM_SEEDS, seed=9)


def _flow() -> Flow:
    return Flow(
        [
            DetectStage(CONFIG),
            PartitionStage(),
            PlaceStage(),
            CongestionStage(grid=(16, 16)),
        ],
        name="bench",
    )


def _cli_run(manifest: str, cache_dir: str) -> float:
    start = time.perf_counter()
    code = main(["flow", "run", manifest, "--cache-dir", cache_dir, "--quiet"])
    assert code == 0
    return time.perf_counter() - start


def test_flow_cache_cold_vs_warm(benchmark, once, tmp_path, capsys):
    netlist, _ = planted_gtl_graph(NUM_CELLS, [NUM_CELLS // 10], seed=3)
    write_hgr(netlist, str(tmp_path / "design.hgr"))
    manifest = tmp_path / "flow.json"
    manifest.write_text(
        json.dumps(
            {
                "designs": ["design.hgr"],
                "stages": [
                    {"stage": "detect", "num_seeds": NUM_SEEDS, "seed": 9},
                    {"stage": "partition"},
                    {"stage": "place"},
                    {"stage": "congestion", "grid": [16, 16]},
                ],
            }
        )
    )
    cache_dir = str(tmp_path / "cache")

    cold_time = _cli_run(str(manifest), cache_dir)
    cold_out = capsys.readouterr().out
    # One artifact row per stage, plus the detect's seed trace and head
    # pointer (every computed detect keeps them for a later edit).
    assert "6 put(s)" in cold_out

    warm_time = benchmark.pedantic(
        _cli_run, args=(str(manifest), cache_dir), **once
    )
    warm_out = capsys.readouterr().out
    # Acceptance: the second CLI run answers every stage from the cache.
    assert "4 hit(s) / 0 miss(es) (100% hit rate)" in warm_out
    assert warm_out.count(" hit ") >= 4 and " run " not in warm_out

    # Bit-identity: run the same flow via the API on the same design file
    # into a fresh cache, then replay it; every cached artifact's canonical
    # payload must equal the computed one exactly (a FinderReport embeds
    # its own wall-clock runtime, so identity is only defined against the
    # run that produced the cache entry).
    design = load_design(str(tmp_path / "design.hgr"))
    with ResultStore(str(tmp_path / "api-cache")) as store:
        computed = _flow().run(design, store=store)
        cached = _flow().run(design, store=store)
    assert not any(r.cached for r in computed.results)
    assert cached.all_cached
    for fresh, hit in zip(computed.results, cached.results):
        assert hit.fingerprint == fresh.fingerprint
        assert encode_artifact(hit.kind, hit.artifact) == encode_artifact(
            fresh.kind, fresh.artifact
        )

    # CLI and API share one fingerprint space: the CLI-populated cache
    # answers the API run wholesale.
    with ResultStore(cache_dir) as store:
        assert _flow().run(design, store=store).all_cached

    print(
        f"\n{NUM_CELLS}-cell design, 4 stages: cold {cold_time:.2f}s, "
        f"warm {warm_time:.3f}s (speedup x{cold_time / max(warm_time, 1e-9):.0f})"
    )
    if not SMOKE:
        assert warm_time < 0.5 * cold_time
