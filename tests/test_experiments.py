"""Smoke tests: every table/figure harness runs at tiny scale and the
paper-shaped qualitative claims hold."""

import pytest

from repro.experiments import (
    run_fig2,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_table1,
    run_table2,
    run_table3,
)
from repro.experiments.common import ExperimentResult
from repro.generators import IndustrialSpec


@pytest.fixture(scope="module")
def tiny_industrial_spec():
    return IndustrialSpec(
        glue_gates=3000, rom_blocks=((5, 24), (5, 16)), num_pads=48
    )


def test_experiment_result_render_and_csv(tmp_path):
    result = ExperimentResult(
        name="X", headers=["a"], rows=[[1]], series={"s": [(1, 2.0), (2, 1.0)]}
    )
    text = result.render()
    assert "== X ==" in text
    assert "min 1" in text
    path = str(tmp_path / "s.csv")
    result.write_series_csv(path)
    assert open(path).read().startswith("series,x,y")


def test_table1_small_scale_finds_everything():
    result = run_table1(
        cases=[(1200, (80,)), (2500, (70, 200))], num_seeds=24, seed=1
    )
    assert len(result.rows) == 3
    missed = [r for r in result.rows if r[5] == "(missed)"]
    assert not missed
    for row in result.rows:
        assert row[8] <= 5.0  # miss%
        assert row[9] <= 10.0  # over%


def test_table2_smoke():
    result = run_table2(scale=0.05, num_seeds=12, seed=1)
    assert result.rows
    names = {row[0] for row in result.rows if row[0]}
    assert "bigblue1-like" in names


def test_table3_smoke(tiny_industrial_spec):
    result = run_table3(spec=tiny_industrial_spec, num_seeds=32, seed=2)
    assert len(result.rows) == 2
    found = [r for r in result.rows if r[1] != "(missed)"]
    assert found  # at least one block recovered
    for row in found:
        assert row[4] <= 10.0  # miss%


def test_fig2_curve_shape():
    result = run_fig2(num_cells=3000, gtl_size=300, seed=3)
    inside = result.series["seed inside GTL"]
    outside = result.series["seed outside GTL"]
    inside_min = min(v for _, v in inside)
    outside_min = min(v for _, v in outside if _ > 50)
    assert inside_min < 0.3
    assert outside_min > inside_min
    # Minimum location near the planted boundary.
    min_size = min(inside, key=lambda p: p[1])[0]
    assert abs(min_size - 300) <= 15


def test_fig3_sharper_than_fig2():
    result = run_fig3(num_cells=3000, gtl_size=300, seed=3)
    note = "\n".join(result.notes)
    assert "GTL-SD" in note
    inside_min = min(v for _, v in result.series["seed inside GTL"])
    assert inside_min < 0.1


def test_fig4_compactness():
    result = run_fig4(scale=0.08, num_seeds=24, seed=4, show_map=False)
    assert result.rows, "no GTLs found at this scale"
    for row in result.rows:
        assert row[4] > 1.2  # found GTLs are spatially compact


def test_fig5_metric_behaviour():
    result = run_fig5(scale=0.15, seed=5, probe_seeds=16)
    assert set(result.series) == {"nGTL-S", "GTL-SD", "ratio-cut"}
    ngtl = result.series["nGTL-S"]
    sd = result.series["GTL-SD"]
    # Both GTL metrics bottom out at nearly the same interior size.
    n_min = min(ngtl, key=lambda p: p[1])[0]
    d_min = min(sd, key=lambda p: p[1])[0]
    length = ngtl[-1][0]
    assert n_min < 0.9 * length
    assert abs(n_min - d_min) <= 0.1 * length


def test_fig6_coincidence(tiny_industrial_spec):
    result = run_fig6(
        spec=tiny_industrial_spec, num_seeds=32, seed=6, show_map=False
    )
    values = {row[0]: row[1] for row in result.rows}
    assert values["GTLs found"] >= 1
    assert values["mean occupancy of GTL tiles"] > values["mean occupancy elsewhere"]


def test_fig7_inflation_reduces_congestion(tiny_industrial_spec):
    result = run_fig7(spec=tiny_industrial_spec, num_seeds=32, seed=6)
    rows = {row[0]: row for row in result.rows}
    before = rows["nets through 100% tiles"][1]
    after = rows["nets through 100% tiles"][2]
    assert after <= before
