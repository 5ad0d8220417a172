"""Hypergraph netlist substrate.

A netlist is modeled as a hypergraph ``G = (V, E)``: ``V`` is a set of cells
(standard cells or IO pads) and each net ``e`` in ``E`` connects a subset of
``V``.  This is exactly the representation the paper's metrics and algorithm
operate on.
"""

from repro.netlist.arrays import NameTable, NetlistArrays, gather_segments
from repro.netlist.backend import resolve_backend
from repro.netlist.hypergraph import Cell, Net, Netlist
from repro.netlist.builder import NetlistBuilder
from repro.netlist.ops import (
    GroupStats,
    PrefixCurves,
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
    scan_ordering_curves,
)
from repro.netlist.stats import NetlistStats, netlist_stats
from repro.netlist.validate import validate_netlist

__all__ = [
    "Cell",
    "NameTable",
    "Net",
    "Netlist",
    "NetlistArrays",
    "NetlistBuilder",
    "gather_segments",
    "resolve_backend",
    "GroupStats",
    "PrefixCurves",
    "PrefixScanner",
    "boundary_nets",
    "connected_components",
    "cut_size",
    "external_pin_count",
    "group_connected",
    "group_pin_count",
    "group_stats",
    "scan_ordering_curves",
    "induced_netlist",
    "internal_nets",
    "neighbors_of_group",
    "validate_netlist",
    "NetlistStats",
    "netlist_stats",
]
