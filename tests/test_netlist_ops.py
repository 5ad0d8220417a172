"""Tests for group operations and the incremental prefix scanner."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NetlistError
from repro.netlist.builder import NetlistBuilder
from repro.netlist.ops import (
    PrefixScanner,
    boundary_nets,
    connected_components,
    cut_size,
    external_pin_count,
    group_connected,
    group_pin_count,
    group_stats,
    induced_netlist,
    internal_nets,
    neighbors_of_group,
)


def test_cut_size_empty(triangle):
    assert cut_size(triangle, []) == 0


def test_cut_size_single(triangle):
    assert cut_size(triangle, [0]) == 2


def test_cut_size_whole_netlist(triangle):
    assert cut_size(triangle, [0, 1, 2]) == 0


def test_cut_size_two_cliques(two_cliques):
    assert cut_size(two_cliques, range(4)) == 1  # only the bridge


def test_boundary_and_internal_nets(two_cliques):
    group = set(range(4))
    boundary = boundary_nets(two_cliques, group)
    internal = internal_nets(two_cliques, group)
    assert len(boundary) == 1
    assert two_cliques.net_name(boundary[0]) == "bridge"
    assert len(internal) == 6  # C(4,2) clique nets


def test_external_pin_count(star_netlist):
    assert external_pin_count(star_netlist, 0, [0, 1]) == 3
    assert external_pin_count(star_netlist, 0, range(5)) == 0


def test_group_pin_count(mixed_netlist):
    assert group_pin_count(mixed_netlist, [0, 1]) == 6  # 4 explicit + 2


def test_neighbors_of_group(two_cliques):
    assert neighbors_of_group(two_cliques, range(4)) == [4]


def test_group_stats(two_cliques):
    stats = group_stats(two_cliques, range(4))
    assert stats.size == 4
    assert stats.cut == 1
    assert stats.internal_nets == 6
    assert stats.pins == sum(two_cliques.cell_pin_count(c) for c in range(4))
    assert stats.avg_pins == stats.pins / 4


def test_group_stats_empty_raises(triangle):
    with pytest.raises(NetlistError):
        group_stats(triangle, [])


def test_induced_netlist(two_cliques):
    sub, mapping = induced_netlist(two_cliques, range(4))
    assert sub.num_cells == 4
    assert sub.num_nets == 6  # bridge restricted to 1 pin -> dropped
    assert set(mapping) == set(range(4))


def test_induced_netlist_preserves_names(mixed_netlist):
    sub, mapping = induced_netlist(mixed_netlist, [0, 1, 2])
    assert sub.cell_name(mapping[0]) == "a"


def test_induced_netlist_empty_raises(triangle):
    with pytest.raises(NetlistError):
        induced_netlist(triangle, [])


def test_group_connected(two_cliques):
    assert group_connected(two_cliques, range(4))
    assert group_connected(two_cliques, range(8))
    assert not group_connected(two_cliques, [0, 1, 6, 7])
    assert not group_connected(two_cliques, [])


def test_connected_components(two_cliques):
    assert len(connected_components(two_cliques)) == 1


def test_connected_components_disconnected():
    builder = NetlistBuilder()
    a, b, c, d = builder.add_cells(4)
    builder.add_net("n1", [a, b])
    builder.add_net("n2", [c, d])
    components = connected_components(builder.build())
    assert sorted(sorted(c) for c in components) == [[0, 1], [2, 3]]


# ---------------------------------------------------------------- scanner
def test_prefix_scanner_matches_batch(two_cliques):
    scanner = PrefixScanner(two_cliques)
    order = [0, 1, 2, 3, 4, 5, 6, 7]
    for k, cell in enumerate(order, start=1):
        scanner.add(cell)
        expected = group_stats(two_cliques, order[:k])
        assert scanner.stats() == expected


def test_prefix_scanner_rejects_duplicates(triangle):
    scanner = PrefixScanner(triangle)
    scanner.add(0)
    with pytest.raises(NetlistError):
        scanner.add(0)


def test_prefix_scanner_empty_stats_raise(triangle):
    scanner = PrefixScanner(triangle)
    with pytest.raises(NetlistError):
        scanner.stats()
    with pytest.raises(NetlistError):
        scanner.avg_pins


def test_prefix_scanner_contains(triangle):
    scanner = PrefixScanner(triangle)
    scanner.add(1)
    assert 1 in scanner
    assert 0 not in scanner


def test_prefix_scanner_singleton_net():
    builder = NetlistBuilder()
    a, b = builder.add_cells(2)
    builder.add_net("single", [a])
    builder.add_net("pair", [a, b])
    netlist = builder.build()
    scanner = PrefixScanner(netlist)
    scanner.add(a)
    assert scanner.cut == 1  # only the pair net crosses
    assert scanner.internal_nets == 1  # the singleton
    scanner.add(b)
    assert scanner.cut == 0
    assert scanner.internal_nets == 2


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_property_scanner_equals_batch_on_random_netlists(seed):
    """Incremental prefix stats always equal batch recomputation."""
    rng = random.Random(seed)
    builder = NetlistBuilder()
    num_cells = rng.randint(3, 25)
    cells = builder.add_cells(num_cells)
    for i in range(rng.randint(2, 35)):
        degree = rng.randint(1, min(5, num_cells))
        builder.add_net(f"n{i}", rng.sample(cells, degree))
    netlist = builder.build()

    order = list(range(num_cells))
    rng.shuffle(order)
    scanner = PrefixScanner(netlist)
    for k, cell in enumerate(order, start=1):
        scanner.add(cell)
        assert scanner.stats() == group_stats(netlist, order[:k])
