"""Tests for the hypergraph netlist, builder and validation."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import NetlistError, ValidationError
from repro.netlist.builder import NetlistBuilder, netlist_from_edges
from repro.netlist.validate import validate_netlist


# ---------------------------------------------------------------- builder
def test_add_cell_auto_names():
    builder = NetlistBuilder()
    a = builder.add_cell()
    b = builder.add_cell()
    netlist = builder.build()
    assert netlist.cell_name(a) == "c0"
    assert netlist.cell_name(b) == "c1"


def test_duplicate_cell_name_rejected():
    builder = NetlistBuilder()
    builder.add_cell("x")
    with pytest.raises(NetlistError):
        builder.add_cell("x")


def test_duplicate_net_name_rejected():
    builder = NetlistBuilder()
    a, b = builder.add_cells(2)
    builder.add_net("n", [a, b])
    with pytest.raises(NetlistError):
        builder.add_net("n", [a, b])


def test_nonpositive_area_rejected():
    with pytest.raises(NetlistError):
        NetlistBuilder().add_cell(area=0.0)


def test_negative_pin_count_rejected():
    with pytest.raises(NetlistError):
        NetlistBuilder().add_cell(pin_count=-1)


def test_net_unknown_cell_rejected():
    builder = NetlistBuilder()
    builder.add_cell()
    with pytest.raises(NetlistError):
        builder.add_net("n", [0, 5])


def test_net_without_cells_rejected():
    with pytest.raises(NetlistError):
        NetlistBuilder().add_net("n", [])


def test_net_deduplicates_members():
    builder = NetlistBuilder()
    a, b = builder.add_cells(2)
    builder.add_net("n", [a, b, a])
    netlist = builder.build()
    assert netlist.cells_of_net(0) == (a, b)


def test_explicit_pin_count_below_incidences_rejected():
    builder = NetlistBuilder()
    a = builder.add_cell("a", pin_count=1)
    b = builder.add_cell("b")
    builder.add_net("n1", [a, b])
    builder.add_net("n2", [a, b])
    with pytest.raises(NetlistError):
        builder.build()


def test_drop_singleton_nets():
    builder = NetlistBuilder()
    a, b = builder.add_cells(2)
    builder.add_net("single", [a])
    builder.add_net("pair", [a, b])
    netlist = builder.build(drop_singleton_nets=True)
    assert netlist.num_nets == 1
    assert netlist.net_name(0) == "pair"


def test_set_pin_count_and_area():
    builder = NetlistBuilder()
    a = builder.add_cell()
    builder.set_pin_count(a, 7)
    builder.set_area(a, 3.5)
    netlist = builder.build()
    assert netlist.cell_pin_count(a) == 7
    assert netlist.cell_area(a) == 3.5


def test_set_pin_count_validation():
    builder = NetlistBuilder()
    builder.add_cell()
    with pytest.raises(NetlistError):
        builder.set_pin_count(5, 1)
    with pytest.raises(NetlistError):
        builder.set_pin_count(0, -1)
    with pytest.raises(NetlistError):
        builder.set_area(0, 0.0)


def test_netlist_from_edges():
    netlist = netlist_from_edges(3, [(0, 1), (1, 2)])
    assert netlist.num_cells == 3
    assert netlist.num_nets == 2
    assert netlist.net_degree(0) == 2


# ---------------------------------------------------------------- accessors
def test_basic_accessors(mixed_netlist):
    assert mixed_netlist.num_cells == 4
    assert mixed_netlist.num_nets == 3
    assert mixed_netlist.cell_index("a") == 0
    assert mixed_netlist.net_index("n2") == 1
    assert mixed_netlist.cell_is_fixed(3)
    assert mixed_netlist.cell(0).name == "a"


def test_unknown_names_raise(mixed_netlist):
    with pytest.raises(NetlistError):
        mixed_netlist.cell_index("ghost")
    with pytest.raises(NetlistError):
        mixed_netlist.net_index("ghost")


def test_pin_counting(mixed_netlist):
    # Cell "a": explicit 4 pins; b and c: 2 incidences each; pad: 1.
    assert mixed_netlist.cell_pin_count(0) == 4
    assert mixed_netlist.cell_pin_count(1) == 2
    assert mixed_netlist.num_pins == 4 + 2 + 2 + 1
    assert mixed_netlist.average_pins_per_cell == pytest.approx(9 / 4)


def test_num_incidences(mixed_netlist):
    assert mixed_netlist.num_incidences == 7


def test_movable_and_fixed(mixed_netlist):
    assert mixed_netlist.fixed_cells() == [3]
    assert mixed_netlist.movable_cells() == [0, 1, 2]


def test_neighbors(triangle):
    assert sorted(triangle.neighbors(0)) == [1, 2]


def test_neighbors_exclude_self(star_netlist):
    assert sorted(star_netlist.neighbors(2)) == [0, 1, 3, 4]


def test_cells_and_nets_iterators(triangle):
    assert len(list(triangle.cells())) == 3
    nets = list(triangle.nets())
    assert len(nets) == 3
    assert nets[0].degree == 2


def test_equality_and_hash(triangle):
    builder = NetlistBuilder()
    a, b, c = builder.add_cells(3)
    builder.add_net("ab", [a, b])
    builder.add_net("bc", [b, c])
    builder.add_net("ca", [c, a])
    other = builder.build()
    assert other == triangle
    assert hash(other) == hash(triangle)


def test_repr(triangle):
    assert "cells=3" in repr(triangle)


def test_empty_netlist_average_pins_raises():
    netlist = NetlistBuilder().build()
    with pytest.raises(NetlistError):
        netlist.average_pins_per_cell


# ---------------------------------------------------------------- validate
def test_validate_accepts_good_netlists(triangle, two_cliques, mixed_netlist):
    validate_netlist(triangle)
    validate_netlist(two_cliques)
    validate_netlist(mixed_netlist)


def test_validate_requires_connected_pins_flag():
    builder = NetlistBuilder()
    builder.add_cell("floating")
    netlist = builder.build()
    validate_netlist(netlist)  # fine by default
    with pytest.raises(ValidationError):
        validate_netlist(netlist, require_connected_pins=True)


@given(st.integers(2, 30), st.data())
def test_property_builder_roundtrip(num_cells, data):
    """Random netlists: incidences consistent, pin counts >= degrees."""
    builder = NetlistBuilder()
    cells = builder.add_cells(num_cells)
    num_nets = data.draw(st.integers(1, 30))
    for i in range(num_nets):
        members = data.draw(
            st.lists(st.sampled_from(cells), min_size=1, max_size=5, unique=True)
        )
        builder.add_net(f"n{i}", members)
    netlist = builder.build()
    validate_netlist(netlist)
    total = sum(netlist.net_degree(e) for e in range(netlist.num_nets))
    assert netlist.num_incidences == total
    for cell in range(netlist.num_cells):
        assert netlist.cell_pin_count(cell) >= netlist.cell_degree(cell)
