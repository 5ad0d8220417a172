"""Tests for all synthetic workload generators."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GenerationError
from repro.generators import (
    DEFAULT_LIBRARY,
    CircuitBuilder,
    Gate,
    GateLibrary,
    IndustrialSpec,
    PlantedGraphSpec,
    build_carry_lookahead_adder,
    build_decoder,
    build_dissolved_rom,
    build_multiplier,
    build_mux_tree,
    build_random_glue,
    build_ripple_carry_adder,
    default_bigblue1_like,
    generate_industrial,
    generate_ispd_like,
    planted_gtl_graph,
)
from repro.generators.ispd_like import EmbeddedStructure, IspdLikeSpec, ispd_like_suite
from repro.generators.structures import build_modular_glue
from repro.metrics import normalized_gtl_score
from repro.netlist.ops import connected_components, cut_size
from repro.netlist.validate import validate_netlist


# ---------------------------------------------------------------- planted
def test_planted_graph_sizes():
    netlist, truth = planted_gtl_graph(3000, [100, 200], seed=0)
    assert netlist.num_cells == 3000
    assert [len(t) for t in truth] == [100, 200]
    validate_netlist(netlist)


def test_planted_blocks_disjoint():
    _, truth = planted_gtl_graph(3000, [100, 200, 150], seed=1)
    union = set()
    for block in truth:
        assert union.isdisjoint(block)
        union.update(block)


def test_planted_block_is_connected():
    netlist, truth = planted_gtl_graph(2000, [150], seed=2)
    from repro.netlist.ops import group_connected

    assert group_connected(netlist, truth[0])


def test_planted_graph_connected_overall():
    netlist, _ = planted_gtl_graph(1000, [80], seed=3)
    assert len(connected_components(netlist)) == 1


def test_planted_block_cut_matches_spec():
    spec = PlantedGraphSpec(num_cells=2000, gtl_sizes=(150,), external_links=12)
    netlist, truth = planted_gtl_graph(2000, [150], seed=4, spec=spec)
    assert cut_size(netlist, truth[0]) <= 12  # some links may share nets


def test_planted_block_scores_low():
    netlist, truth = planted_gtl_graph(2000, [150], seed=5)
    assert normalized_gtl_score(netlist, truth[0], 0.8) < 0.3


def test_planted_graph_deterministic():
    n1, t1 = planted_gtl_graph(1000, [60], seed=9)
    n2, t2 = planted_gtl_graph(1000, [60], seed=9)
    assert n1 == n2
    assert t1 == t2


def test_planted_spec_validation():
    with pytest.raises(GenerationError):
        PlantedGraphSpec(num_cells=2, gtl_sizes=(1,))
    with pytest.raises(GenerationError):
        PlantedGraphSpec(num_cells=100, gtl_sizes=(2,))
    with pytest.raises(GenerationError):
        PlantedGraphSpec(num_cells=100, gtl_sizes=(60,))  # > half


def test_planted_spec_mismatch_rejected():
    spec = PlantedGraphSpec(num_cells=1000, gtl_sizes=(50,))
    with pytest.raises(GenerationError):
        planted_gtl_graph(2000, [50], spec=spec)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_property_planted_graph_valid(seed):
    rng = random.Random(seed)
    num_cells = rng.randint(200, 1500)
    sizes = [rng.randint(10, num_cells // 8) for _ in range(rng.randint(1, 3))]
    netlist, truth = planted_gtl_graph(num_cells, sizes, seed=seed)
    validate_netlist(netlist)
    assert sum(len(t) for t in truth) == sum(sizes)


# ---------------------------------------------------------------- library
def test_gate_pin_count():
    assert Gate("X", num_inputs=3).pin_count == 4


def test_library_lookup_and_unknown():
    assert DEFAULT_LIBRARY["NAND4"].pin_count == 5
    assert "INV" in DEFAULT_LIBRARY
    with pytest.raises(GenerationError):
        DEFAULT_LIBRARY["NOPE"]


def test_library_dynamic_wide_gates():
    lib = GateLibrary([Gate("INV", 1)])
    gate = lib.and_gate(7)
    assert gate.name == "AND7"
    assert gate.num_inputs == 7
    assert lib.or_gate(3).name == "OR3"
    with pytest.raises(GenerationError):
        lib.and_gate(1)


def test_complex_gates_are_pin_dense():
    """The paper's premise: complex cells give most pins per unit area."""
    nand4 = DEFAULT_LIBRARY["NAND4"]
    inv = DEFAULT_LIBRARY["INV"]
    assert nand4.pin_count / nand4.area > 1.5 * inv.pin_count / inv.area


# ---------------------------------------------------------------- circuit builder
def test_circuit_builder_basic():
    circuit = CircuitBuilder()
    a, b = circuit.new_wires(2)
    cell, (out,) = circuit.add_gate("NAND2", [a, b])
    netlist = circuit.finish(drop_dangling_wires=False)
    assert netlist.num_cells == 1
    assert netlist.cell_pin_count(cell) == 3
    assert circuit.gate_type(cell) == "NAND2"


def test_circuit_builder_drops_dangling():
    circuit = CircuitBuilder()
    a, b = circuit.new_wires(2)
    circuit.add_gate("NAND2", [a, b])
    netlist = circuit.finish()
    assert netlist.num_nets == 0  # each wire touches one cell only


def test_circuit_builder_too_many_inputs():
    circuit = CircuitBuilder()
    wires = circuit.new_wires(3)
    with pytest.raises(GenerationError):
        circuit.add_gate("INV", wires)


def test_circuit_builder_output_count_checked():
    circuit = CircuitBuilder()
    a = circuit.new_wire()
    with pytest.raises(GenerationError):
        circuit.add_gate("INV", [a], outputs=[circuit.new_wire(), circuit.new_wire()])


def test_circuit_builder_pad():
    circuit = CircuitBuilder()
    w = circuit.new_wire()
    a = circuit.new_wire()
    cell, _ = circuit.add_gate("BUF", [a], outputs=[w])
    pad = circuit.add_pad(w)
    netlist = circuit.finish()
    assert netlist.cell_is_fixed(pad)
    assert netlist.cell_pin_count(pad) == 1


def test_circuit_builder_connect_unknown_wire():
    circuit = CircuitBuilder()
    with pytest.raises(GenerationError):
        circuit.connect(5, 0)


def test_circuit_builder_duplicate_wire_names_ok():
    circuit = CircuitBuilder()
    w1 = circuit.new_wire("w")
    w2 = circuit.new_wire("w")
    a = circuit.new_wire()
    circuit.add_gate("BUF", [a], outputs=[w1])
    circuit.add_gate("BUF", [a], outputs=[w2])
    c1, _ = circuit.add_gate("INV", [w1])
    c2, _ = circuit.add_gate("INV", [w2])
    netlist = circuit.finish()
    assert netlist.num_nets >= 2  # both named wires materialized


# ---------------------------------------------------------------- structures
def _finish(circuit):
    netlist = circuit.finish()
    validate_netlist(netlist)
    return netlist


def test_ripple_carry_adder_size():
    circuit = CircuitBuilder()
    ports = build_ripple_carry_adder(circuit, 8)
    assert ports.size == 40  # 5 gates per bit
    assert len(ports.inputs) == 17
    assert len(ports.outputs) == 9
    _finish(circuit)


def test_cla_denser_than_rca():
    c1, c2 = CircuitBuilder(), CircuitBuilder()
    rca = build_ripple_carry_adder(c1, 16)
    cla = build_carry_lookahead_adder(c2, 16)
    assert cla.size > rca.size
    n1, n2 = _finish(c1), _finish(c2)
    assert n2.num_pins / n2.num_cells > n1.num_pins / n1.num_cells


def test_decoder_outputs():
    circuit = CircuitBuilder()
    ports = build_decoder(circuit, 4)
    assert len(ports.outputs) == 16
    assert ports.size == 4 + 16
    _finish(circuit)


def test_decoder_one_bit():
    circuit = CircuitBuilder()
    ports = build_decoder(circuit, 1)
    assert len(ports.outputs) == 2


def test_mux_tree_reduces_to_one():
    circuit = CircuitBuilder()
    ports = build_mux_tree(circuit, 9)
    assert len(ports.outputs) == 1
    assert ports.size == 8  # 9 inputs -> 8 MUX2
    _finish(circuit)


def test_dissolved_rom_structure():
    circuit = CircuitBuilder()
    ports = build_dissolved_rom(circuit, 5, 24, rng=1)
    assert len(ports.outputs) == 24
    assert ports.size > 5 + 32  # decoder + mesh + outputs
    netlist = _finish(circuit)
    # The ROM must be internally connected.
    from repro.netlist.ops import group_connected

    assert group_connected(netlist, ports.cells)


def test_dissolved_rom_is_tangled():
    circuit = CircuitBuilder()
    ports = build_dissolved_rom(circuit, 5, 24, rng=1)
    build_random_glue(circuit, 2000, rng=2)
    # Tie the ROM to the glue minimally so the score is meaningful.
    netlist = circuit.finish()
    score = normalized_gtl_score(netlist, ports.cells, 0.65)
    assert score < 0.5


def test_multiplier_structure():
    circuit = CircuitBuilder()
    ports = build_multiplier(circuit, 4)
    assert ports.size >= 16  # >= bits^2 partial products
    assert len(ports.outputs) == 8
    _finish(circuit)


def test_random_glue_size_and_determinism():
    c1, c2 = CircuitBuilder(), CircuitBuilder()
    g1 = build_random_glue(c1, 500, rng=5)
    g2 = build_random_glue(c2, 500, rng=5)
    assert g1.size == g2.size == 500
    assert _finish(c1) == _finish(c2)


def test_modular_glue_modules_score_average():
    circuit = CircuitBuilder()
    blocks = build_modular_glue(circuit, 4000, rng=3)
    netlist = circuit.finish()
    assert len(blocks) >= 4
    for block in blocks[1:4]:
        score = normalized_gtl_score(netlist, block.cells, 0.65)
        assert score > 0.5  # ordinary modules are not GTLs


def test_structure_param_validation():
    circuit = CircuitBuilder()
    with pytest.raises(GenerationError):
        build_decoder(circuit, 0)
    with pytest.raises(GenerationError):
        build_mux_tree(circuit, 1)
    with pytest.raises(GenerationError):
        build_ripple_carry_adder(circuit, 0)
    with pytest.raises(GenerationError):
        build_multiplier(circuit, 1)
    with pytest.raises(GenerationError):
        build_dissolved_rom(circuit, 4, 0)
    with pytest.raises(GenerationError):
        build_random_glue(circuit, 0)


def test_structure_explicit_inputs_must_match():
    circuit = CircuitBuilder()
    with pytest.raises(GenerationError):
        build_decoder(circuit, 3, inputs=circuit.new_wires(2))


# ---------------------------------------------------------------- composites
def test_ispd_like_generation():
    netlist, truth = generate_ispd_like(default_bigblue1_like(0.1), seed=1)
    validate_netlist(netlist)
    assert netlist.fixed_cells()  # pads exist
    assert len(truth) == 6
    union = set()
    for cells in truth.values():
        assert union.isdisjoint(cells)
        union.update(cells)


def test_ispd_like_suite_shapes():
    suite = ispd_like_suite(0.1)
    assert [s.name for s in suite] == [
        "bigblue1-like",
        "bigblue2-like",
        "bigblue3-like",
        "adaptec1-like",
        "adaptec2-like",
        "adaptec3-like",
    ]


def test_embedded_structure_validation():
    with pytest.raises(GenerationError):
        EmbeddedStructure("bogus", 4)
    with pytest.raises(GenerationError):
        EmbeddedStructure("rom", 1)


def test_ispd_spec_validation():
    with pytest.raises(GenerationError):
        IspdLikeSpec(name="x", glue_gates=5, structures=())
    with pytest.raises(GenerationError):
        IspdLikeSpec(name="x", glue_gates=100, structures=(), num_pads=2)
    with pytest.raises(GenerationError):
        IspdLikeSpec(name="x", glue_gates=100, structures=(), tap_fraction=2.0)


def test_industrial_generation():
    spec = IndustrialSpec(glue_gates=2000, rom_blocks=((4, 8), (4, 8)))
    netlist, truth = generate_industrial(spec, seed=2)
    validate_netlist(netlist)
    assert len(truth) == 2
    assert netlist.fixed_cells()
    for block in truth:
        score = normalized_gtl_score(netlist, block, 0.65)
        assert score < 0.6


def test_industrial_spec_validation():
    with pytest.raises(GenerationError):
        IndustrialSpec(glue_gates=10)
    with pytest.raises(GenerationError):
        IndustrialSpec(rom_blocks=())
    with pytest.raises(GenerationError):
        IndustrialSpec(rom_blocks=((1, 2),))
    with pytest.raises(GenerationError):
        IndustrialSpec(tap_fraction=1.5)


def test_industrial_deterministic():
    spec = IndustrialSpec(glue_gates=1500, rom_blocks=((4, 8),))
    n1, t1 = generate_industrial(spec, seed=4)
    n2, t2 = generate_industrial(spec, seed=4)
    assert n1 == n2
    assert t1 == t2
