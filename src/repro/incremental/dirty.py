"""Dirty-region computation: which cells could an edit have influenced?

A seed job's footprint (see ``_SeedOutcome`` in
:mod:`repro.finder.finder`) is the set of cells its orderings absorbed.
Every quantity the job computes — frontier connection weights during
growth, prefix cut/pin curves, group statistics of the genetic family —
reads only nets incident to absorbed cells or to their immediate frontier.
So an edit can change the job's outcome only if some *endpoint* of an
edited net (or an attribute-changed cell) lies within one hypergraph hop
of the footprint.  Equivalently: expand the endpoints by
:data:`DIRTY_HOPS` (one) frontier hop on the edited netlist and test
intersection with the footprint.

The expansion is one CSR frontier pass per hop on the array backend
(cells → incident nets → member cells, exactly the
:func:`~repro.netlist.ops.group_connected` shape), with a scalar BFS
reference behind ``REPRO_SCALAR_BACKEND=1`` producing identical regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import FrozenSet, Set

import numpy as np

from repro.errors import NetlistError
from repro.netlist.backend import resolve_backend
from repro.netlist.hypergraph import Netlist
from repro.obs import trace

from repro.incremental.delta import NetlistDelta

#: Frontier hops the edit endpoints are expanded by: frontier-weight
#: effects reach exactly one hop beyond an edited net's endpoints.
DIRTY_HOPS = 1


@dataclass(frozen=True)
class DirtyRegion:
    """The cells an edit could have influenced.

    Attributes:
        cells: dirty cell indices on the *edited* netlist.
        fraction: ``len(cells) / num_cells`` of the edited netlist.
    """

    cells: FrozenSet[int]
    fraction: float

    @cached_property
    def _sorted(self) -> np.ndarray:
        return np.sort(np.fromiter(self.cells, dtype=np.int64, count=len(self.cells)))

    def intersects(self, footprint: np.ndarray) -> bool:
        """True when any cell of the sorted ``footprint`` is dirty (one
        binary search per dirty cell)."""
        if not len(footprint) or not self.cells:
            return False
        dirty = self._sorted
        at = np.minimum(np.searchsorted(footprint, dirty), len(footprint) - 1)
        return bool(np.any(footprint[at] == dirty))


def delta_endpoint_cells(new: Netlist, delta: NetlistDelta) -> Set[int]:
    """Seed set of the expansion: endpoints of every edit, as indices on
    the edited netlist.

    Covers old *and* new members of rewired nets (a cell that lost a pin
    is as affected as one that gained it), members of added/removed nets,
    and attribute-changed cells; names no longer present (removed cells)
    are skipped — they cannot carry dirt on the new netlist, and removing
    cells forces a full fall-back upstream anyway.
    """
    names: Set[str] = set()
    for edit in delta.nets_changed:
        names.update(edit.old_members or ())
        names.update(edit.new_members or ())
    for edit in delta.nets_removed:
        names.update(edit.old_members or ())
    for edit in delta.nets_added:
        names.update(edit.new_members or ())
    for cell in delta.cells_changed:
        names.add(cell.name)
    for cell in delta.cells_added:
        names.add(cell.name)

    endpoints: Set[int] = set()
    for name in names:
        try:
            endpoints.add(new.cell_index(name))
        except NetlistError:
            continue  # removed cell: no longer exists on the edited netlist
    return endpoints


def expand_frontier(netlist: Netlist, cells: Set[int], hops: int) -> Set[int]:
    """Expand ``cells`` by ``hops`` cells→nets→cells frontier passes."""
    if not cells or hops <= 0:
        return set(cells)
    if resolve_backend() == "numpy":
        import numpy as np

        from repro.netlist.arrays import gather_segments

        arrays = netlist.arrays
        mask = np.zeros(netlist.num_cells, dtype=bool)
        mask[list(cells)] = True
        frontier = np.asarray(sorted(cells), dtype=np.int64)
        for _ in range(hops):
            if frontier.size == 0:
                break
            nets = np.unique(
                gather_segments(
                    arrays.cell_nets,
                    arrays.cell_ptr[frontier],
                    arrays.cell_ptr[frontier + 1] - arrays.cell_ptr[frontier],
                )
            )
            if nets.size == 0:
                break
            neighbors = np.unique(
                gather_segments(
                    arrays.net_cells,
                    arrays.net_ptr[nets],
                    arrays.net_degrees[nets],
                )
            )
            frontier = neighbors[~mask[neighbors]]
            mask[frontier] = True
        return set(int(c) for c in np.nonzero(mask)[0])

    dirty = set(cells)
    frontier_cells = set(cells)
    for _ in range(hops):
        if not frontier_cells:
            break
        next_frontier: Set[int] = set()
        for cell in frontier_cells:
            for neighbor in netlist.neighbors(cell):
                if neighbor not in dirty:
                    next_frontier.add(neighbor)
        dirty.update(next_frontier)
        frontier_cells = next_frontier
    return dirty


def dirty_region(new: Netlist, delta: NetlistDelta) -> DirtyRegion:
    """Compute the :class:`DirtyRegion` of ``delta`` on the edited netlist."""
    with trace.span("incremental.dirty"):
        endpoints = delta_endpoint_cells(new, delta)
        cells = expand_frontier(new, endpoints, DIRTY_HOPS)
        fraction = len(cells) / new.num_cells if new.num_cells else 0.0
        if trace.enabled():
            trace.counter("incremental.dirty_cells").add(len(cells))
            trace.gauge("incremental.dirty_fraction").set(fraction)
    return DirtyRegion(cells=frozenset(cells), fraction=fraction)


__all__ = [
    "DIRTY_HOPS",
    "DirtyRegion",
    "delta_endpoint_cells",
    "dirty_region",
    "expand_frontier",
]
