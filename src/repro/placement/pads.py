"""Perimeter pad placement.

Fixed cells (IO pads) anchor the quadratic system; without fixed terminals
the Laplacian is singular and everything collapses to one point.  Pads are
distributed evenly around the die perimeter in index order, matching how the
synthetic generators conceive of them.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import PlacementError
from repro.netlist.hypergraph import Netlist
from repro.placement.region import Die


def assign_pad_positions(
    netlist: Netlist, die: Die
) -> Dict[int, Tuple[float, float]]:
    """Evenly space every fixed cell along the die perimeter.

    Returns a mapping ``cell index -> (x, y)``.  Raises
    :class:`PlacementError` when the netlist has no fixed cells.
    """
    pads = netlist.fixed_cells()
    if not pads:
        raise PlacementError("netlist has no fixed cells to place as pads")
    perimeter = 2.0 * (die.width + die.height)
    spacing = perimeter / len(pads)
    positions: Dict[int, Tuple[float, float]] = {}
    for index, cell in enumerate(pads):
        positions[cell] = _perimeter_point(die, index * spacing)
    return positions


def _perimeter_point(die: Die, distance: float) -> Tuple[float, float]:
    """Point at ``distance`` along the perimeter, counterclockwise from origin."""
    d = distance % (2.0 * (die.width + die.height))
    if d < die.width:
        return (d, 0.0)
    d -= die.width
    if d < die.height:
        return (die.width, d)
    d -= die.height
    if d < die.width:
        return (die.width - d, die.height)
    d -= die.width
    return (0.0, die.height - d)
