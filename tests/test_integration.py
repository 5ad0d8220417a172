"""End-to-end integration tests crossing all subsystems."""

import numpy as np
import pytest

from repro import FinderConfig, find_tangled_logic
from repro.analysis.overlap import match_to_ground_truth
from repro.flow import place_with_soft_blocks
from repro.generators import (
    IndustrialSpec,
    default_bigblue1_like,
    generate_industrial,
    generate_ispd_like,
)
from repro.io.bookshelf import read_bookshelf, write_bookshelf
from repro.io.hgr import read_hgr, write_hgr
from repro.metrics import ScoreContext
from repro.netlist.ops import group_stats
from repro.placement import inflate_cells, place
from repro.routing import build_congestion_map, congestion_stats


@pytest.fixture(scope="module")
def industrial():
    spec = IndustrialSpec(
        glue_gates=4000, rom_blocks=((5, 32), (5, 24)), num_pads=64
    )
    return generate_industrial(spec, seed=21)


@pytest.fixture(scope="module")
def industrial_report(industrial):
    netlist, _ = industrial
    return find_tangled_logic(netlist, FinderConfig(num_seeds=48, seed=22))


def test_full_pipeline_roundtrip_through_bookshelf(tmp_path, industrial):
    """generate -> write Bookshelf -> read -> find: blocks still found."""
    netlist, truth = industrial
    aux = write_bookshelf(netlist, str(tmp_path), "ind")
    loaded, _ = read_bookshelf(aux)
    report = find_tangled_logic(loaded, FinderConfig(num_seeds=48, seed=22))
    # Map ground truth through names (indices may shift).
    name_truth = [
        frozenset(loaded.cell_index(netlist.cell_name(c)) for c in block)
        for block in truth
    ]
    matches = match_to_ground_truth(name_truth, report.gtls)
    assert sum(1 for m in matches if m.detected) >= 1


def test_full_pipeline_roundtrip_through_hgr(tmp_path, industrial):
    netlist, truth = industrial
    path = str(tmp_path / "ind.hgr")
    write_hgr(netlist, path)
    loaded = read_hgr(path)
    # hgr keeps cell order, so indices line up directly.
    report = find_tangled_logic(loaded, FinderConfig(num_seeds=48, seed=22))
    matches = match_to_ground_truth(truth, report.gtls)
    assert sum(1 for m in matches if m.detected) >= 1


def test_found_gtls_score_consistently(industrial, industrial_report):
    """Reported scores match recomputation from scratch."""
    netlist, _ = industrial
    report = industrial_report
    for gtl in report.gtls:
        stats = group_stats(netlist, gtl.cells)
        assert stats.size == gtl.size
        assert stats.cut == gtl.cut
        context = ScoreContext.for_netlist(
            netlist, gtl.rent_exponent, metric="ngtl_s"
        )
        assert context.score(stats) == pytest.approx(gtl.ngtl_score)


def test_congestion_relief_pipeline(industrial, industrial_report):
    """find -> place -> congest -> inflate -> re-place -> compare."""
    netlist, _ = industrial
    report = industrial_report
    gtl_cells = set()
    for gtl in report.gtls:
        gtl_cells.update(gtl.cells)
    assert gtl_cells, "pipeline needs at least one GTL"

    placement = place(netlist, utilization=0.5)
    before_map = build_congestion_map(
        placement, grid=(16, 16), target_average_occupancy=0.32
    )
    before = congestion_stats(before_map)

    inflated = inflate_cells(netlist, gtl_cells, 4.0)
    re_placed = place(inflated, die=placement.die)
    after = congestion_stats(
        build_congestion_map(re_placed, grid=(16, 16), capacity=before_map.capacity)
    )
    assert after.max_occupancy <= before.max_occupancy * 1.15


def test_soft_block_pipeline(industrial, industrial_report):
    """Soft blocks keep a found GTL coherent under placement."""
    netlist, _ = industrial
    report = industrial_report
    block = sorted(report.gtls[0].cells)
    constrained = place_with_soft_blocks(netlist, [block], utilization=0.5)
    xs, ys = constrained.x[block], constrained.y[block]
    dispersion = float(np.hypot(xs - xs.mean(), ys - ys.mean()).mean())
    die_scale = (constrained.die.width + constrained.die.height) / 2
    assert dispersion < 0.3 * die_scale


def test_ispd_like_pipeline_finds_planted_structures():
    netlist, truth = generate_ispd_like(default_bigblue1_like(0.15), seed=33)
    report = find_tangled_logic(netlist, FinderConfig(num_seeds=48, seed=34))
    # The ROMs (strongest structures) must always be found.
    rom_blocks = [
        block for name, block in truth.items() if "_rom" in name
    ]
    rom_matches = match_to_ground_truth(rom_blocks, report.gtls)
    assert all(m.detected for m in rom_matches)
