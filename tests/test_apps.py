"""Tests for the GTL applications: soft blocks and re-synthesis."""

import numpy as np
import pytest

from repro.apps import decompose_complex_gates, soft_block_nets
from repro.errors import PlacementError
from repro.flow import place_with_soft_blocks
from repro.generators import IndustrialSpec, generate_industrial
from repro.netlist.builder import NetlistBuilder
from repro.netlist.ops import cut_size
from repro.netlist.validate import validate_netlist


@pytest.fixture(scope="module")
def rom_design():
    spec = IndustrialSpec(glue_gates=2000, rom_blocks=((5, 24),), num_pads=32)
    return generate_industrial(spec, seed=9)


# ---------------------------------------------------------------- soft blocks
def test_soft_block_nets_adds_pseudo_nets(rom_design):
    netlist, truth = rom_design
    augmented = soft_block_nets(netlist, [truth[0]], rng=1)
    assert augmented.num_cells == netlist.num_cells
    added = augmented.num_nets - netlist.num_nets
    expected = len(truth[0]) + int(0.5 * len(truth[0]))
    assert added == expected
    assert augmented.net_name(netlist.num_nets).startswith("__soft0_")
    validate_netlist(augmented)


def test_soft_block_requires_two_cells(rom_design):
    netlist, _ = rom_design
    with pytest.raises(PlacementError):
        soft_block_nets(netlist, [[1]])


def test_soft_block_ring_connects_group(rom_design):
    netlist, truth = rom_design
    augmented = soft_block_nets(netlist, [truth[0]], chords_per_cell=0.0, rng=2)
    # The ring alone keeps the group connected inside the pseudo-nets.
    pseudo = [
        n
        for n in range(netlist.num_nets, augmented.num_nets)
        if augmented.net_name(n).startswith("__soft")
    ]
    touched = set()
    for net in pseudo:
        touched.update(augmented.cells_of_net(net))
    assert touched == set(truth[0])


def test_place_with_soft_blocks_tightens_group(rom_design):
    netlist, truth = rom_design
    block = sorted(truth[0])
    baseline = place_with_soft_blocks(netlist, [], utilization=0.5)
    constrained = place_with_soft_blocks(
        netlist, [block], chords_per_cell=1.0, utilization=0.5
    )
    assert constrained.netlist is netlist  # pseudo-nets stripped

    def dispersion(p):
        xs, ys = p.x[block], p.y[block]
        return float(np.hypot(xs - xs.mean(), ys - ys.mean()).mean())

    assert dispersion(constrained) <= dispersion(baseline) * 1.05


# ---------------------------------------------------------------- resynthesis
def _wide_gate_netlist():
    """One NAND4-like gate (4 inputs + 1 output) among buffers."""
    builder = NetlistBuilder()
    sources = [builder.add_cell(f"src{i}") for i in range(4)]
    wide = builder.add_cell("wide", pin_count=5)
    sink = builder.add_cell("sink")
    for i, src in enumerate(sources):
        builder.add_net(f"in{i}", [src, wide])
    builder.add_net("out", [wide, sink])
    return builder.build(), wide


def test_decompose_replaces_wide_gate():
    netlist, wide = _wide_gate_netlist()
    new_netlist, mapping = decompose_complex_gates(netlist, [wide])
    validate_netlist(new_netlist)
    stages = mapping[wide]
    assert len(stages) == 3  # 4 inputs -> 2 + 1 root stages
    # Every original net survives with >= 2 pins.
    for name in ("in0", "in1", "in2", "in3", "out"):
        index = new_netlist.net_index(name)
        assert new_netlist.net_degree(index) >= 2
    # Intermediate wires exist.
    assert new_netlist.num_nets > netlist.num_nets


def test_decompose_reduces_pin_density():
    netlist, wide = _wide_gate_netlist()
    new_netlist, mapping = decompose_complex_gates(netlist, [wide])
    old_density = netlist.cell_pin_count(wide) / netlist.cell_area(wide)
    for stage in mapping[wide]:
        density = new_netlist.cell_pin_count(stage) / new_netlist.cell_area(stage)
        assert density < old_density


def test_decompose_leaves_simple_gates_alone(triangle):
    new_netlist, mapping = decompose_complex_gates(triangle, [0, 1, 2])
    assert new_netlist.num_cells == triangle.num_cells
    assert new_netlist.num_nets == triangle.num_nets
    for net in range(triangle.num_nets):
        assert set(new_netlist.cells_of_net(net)) == set(triangle.cells_of_net(net))
    assert all(len(v) == 1 for v in mapping.values())


def test_decompose_validation(triangle):
    with pytest.raises(PlacementError):
        decompose_complex_gates(triangle, [0], max_fanin=1)
    with pytest.raises(PlacementError):
        decompose_complex_gates(triangle, [99])


def test_decompose_preserves_external_cut(rom_design):
    """Re-instantiation must not change the block's external cut."""
    netlist, truth = rom_design
    block = truth[0]
    old_cut = cut_size(netlist, block)
    new_netlist, mapping = decompose_complex_gates(netlist, block)
    new_block = {c for old in block for c in mapping[old]}
    assert cut_size(new_netlist, new_block) == old_cut
    validate_netlist(new_netlist)


def test_decompose_grows_area_modestly(rom_design):
    netlist, truth = rom_design
    block = truth[0]
    new_netlist, _ = decompose_complex_gates(netlist, block)
    old_area = sum(netlist.cell_area(c) for c in range(netlist.num_cells))
    new_area = sum(new_netlist.cell_area(c) for c in range(new_netlist.num_cells))
    assert old_area < new_area < 1.5 * old_area
