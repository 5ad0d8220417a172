"""Tests for RUDY congestion maps and the paper's congestion statistics."""

import numpy as np
import pytest

from repro.errors import PlacementError
from repro.netlist.builder import NetlistBuilder
from repro.placement import Die
from repro.placement.placer import Placement
from repro.routing import build_congestion_map, congestion_stats


def _manual_placement(cells, nets, positions, die=None):
    builder = NetlistBuilder()
    builder.add_cells(cells)
    for i, members in enumerate(nets):
        builder.add_net(f"n{i}", members)
    netlist = builder.build()
    die = die or Die(100, 100)
    x = np.array([positions[c][0] for c in range(cells)], dtype=float)
    y = np.array([positions[c][1] for c in range(cells)], dtype=float)
    return Placement(netlist=netlist, die=die, x=x, y=y)


def test_demand_integrates_to_wirelength():
    """Sum of RUDY demand equals the net's HPWL (spread conserves wire)."""
    placement = _manual_placement(
        2, [[0, 1]], {0: (10.0, 10.0), 1: (60.0, 40.0)}
    )
    cmap = build_congestion_map(placement, grid=(10, 10), capacity=1.0)
    hpwl = 50.0 + 30.0
    assert cmap.demand.sum() == pytest.approx(hpwl, rel=1e-6)


def test_demand_confined_to_bounding_box():
    placement = _manual_placement(
        2, [[0, 1]], {0: (12.0, 12.0), 1: (35.0, 35.0)}
    )
    cmap = build_congestion_map(placement, grid=(10, 10), capacity=1.0)
    # No demand in tiles entirely outside the bbox.
    assert cmap.demand[8, 8] == 0.0
    assert cmap.demand[0, 9] == 0.0
    assert cmap.demand[2, 2] > 0.0


def test_degenerate_net_registers_demand():
    placement = _manual_placement(
        2, [[0, 1]], {0: (50.0, 50.0), 1: (50.0, 50.0)}
    )
    cmap = build_congestion_map(placement, grid=(10, 10), capacity=1.0)
    assert cmap.demand.sum() > 0.0


def test_singleton_net_ignored():
    placement = _manual_placement(2, [[0], [0, 1]], {0: (10, 10), 1: (20, 20)})
    cmap = build_congestion_map(placement, grid=(4, 4), capacity=1.0)
    assert cmap.net_boxes[0] is None
    assert cmap.net_tiles(0) == []
    assert cmap.net_congestion(0) == 0.0


def test_capacity_calibration():
    placement = _manual_placement(
        3, [[0, 1], [1, 2]], {0: (5, 5), 1: (50, 50), 2: (95, 95)}
    )
    cmap = build_congestion_map(placement, grid=(8, 8), target_average_occupancy=0.5)
    assert cmap.occupancy.mean() == pytest.approx(0.5, rel=1e-6)


def test_grid_validation():
    placement = _manual_placement(2, [[0, 1]], {0: (0, 0), 1: (1, 1)})
    with pytest.raises(PlacementError):
        build_congestion_map(placement, grid=(0, 4))


def test_net_tiles_and_max_occupancy():
    placement = _manual_placement(
        2, [[0, 1]], {0: (5.0, 5.0), 1: (45.0, 5.0)}
    )
    cmap = build_congestion_map(placement, grid=(10, 10), capacity=1.0)
    tiles = cmap.net_tiles(0)
    assert all(j <= 1 for _, j in tiles)  # net stays in the bottom rows
    assert cmap.max_net_occupancy(0) >= cmap.net_congestion(0)


def test_congestion_stats_counts():
    placement = _manual_placement(
        4,
        [[0, 1], [2, 3]],
        {0: (5, 5), 1: (15, 5), 2: (60, 60), 3: (90, 90)},
    )
    cmap = build_congestion_map(placement, grid=(10, 10), capacity=1.0)
    stats = congestion_stats(cmap)
    assert stats.nets_through_90 >= stats.nets_through_100
    assert 0 <= stats.mean_occupancy <= stats.max_occupancy
    assert stats.average_congestion >= 0
    text = stats.summary()
    assert "nets through 100%" in text


def test_congestion_stats_empty_map():
    placement = _manual_placement(2, [[0], [1]], {0: (1, 1), 1: (2, 2)})
    cmap = build_congestion_map(placement, grid=(4, 4), capacity=1.0)
    stats = congestion_stats(cmap)
    assert stats.nets_through_100 == 0
    assert stats.average_congestion == 0.0


def test_worst_fraction_changes_average():
    placement = _manual_placement(
        4,
        [[0, 1], [2, 3]],
        {0: (5, 5), 1: (10, 5), 2: (50, 50), 3: (95, 95)},
    )
    cmap = build_congestion_map(placement, grid=(10, 10), capacity=2.0)
    all_nets = congestion_stats(cmap, worst_fraction=1.0)
    worst = congestion_stats(cmap, worst_fraction=0.5)
    assert worst.average_congestion >= all_nets.average_congestion
