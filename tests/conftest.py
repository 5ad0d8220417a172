"""Shared fixtures: small hand-built netlists and planted graphs."""

from __future__ import annotations

import pytest

from repro.generators.random_gtl import planted_gtl_graph
from repro.netlist.builder import NetlistBuilder
from repro.obs import trace


@pytest.fixture(autouse=True)
def _tracer_left_disabled_and_empty():
    """After every test the global tracer is disabled and holds nothing.

    ``trace.disable()`` keeps the collected spans and metrics (a caller
    reads them afterwards), so a test that traces would otherwise hand
    them to whichever test runs next.
    """
    yield
    trace.enable()
    trace.disable()


@pytest.fixture
def triangle():
    """Three cells pairwise connected by 2-pin nets."""
    builder = NetlistBuilder()
    a, b, c = builder.add_cells(3)
    builder.add_net("ab", [a, b])
    builder.add_net("bc", [b, c])
    builder.add_net("ca", [c, a])
    return builder.build()


@pytest.fixture
def two_cliques():
    """Two 4-cell cliques joined by a single bridge net.

    Cells 0-3 form clique A, cells 4-7 clique B; net "bridge" joins cell 3
    and cell 4.  A canonical two-cluster testcase.
    """
    builder = NetlistBuilder()
    cells = builder.add_cells(8)
    for group in (cells[:4], cells[4:]):
        for i, a in enumerate(group):
            for b in group[i + 1 :]:
                builder.add_net(None, [a, b])
    builder.add_net("bridge", [cells[3], cells[4]])
    return builder.build()


@pytest.fixture
def star_netlist():
    """One 5-pin net: a hub-less star (single hyperedge over 5 cells)."""
    builder = NetlistBuilder()
    cells = builder.add_cells(5)
    builder.add_net("star", cells)
    return builder.build()


@pytest.fixture
def mixed_netlist():
    """Small netlist with a pad, explicit pin counts and a 3-pin net."""
    builder = NetlistBuilder()
    a = builder.add_cell("a", area=2.0, pin_count=4)
    b = builder.add_cell("b")
    c = builder.add_cell("c")
    p = builder.add_cell("pad0", fixed=True)
    builder.add_net("n1", [a, b, c])
    builder.add_net("n2", [a, p])
    builder.add_net("n3", [b, c])
    return builder.build()


@pytest.fixture(scope="session")
def small_planted():
    """A 2000-cell random graph with one planted 200-cell GTL."""
    return planted_gtl_graph(2000, [200], seed=7)


@pytest.fixture(scope="session")
def two_block_planted():
    """A 4000-cell random graph with planted blocks of 150 and 400 cells."""
    return planted_gtl_graph(4000, [150, 400], seed=11)
