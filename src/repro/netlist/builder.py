"""Mutable builder for :class:`repro.netlist.hypergraph.Netlist`.

The builder accumulates cells and nets, validates them, and produces an
immutable :class:`Netlist`.  It is the single construction path used by the
parsers and the synthetic-workload generators.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import NetlistError
from repro.netlist.arrays import NameTable, NetlistArrays
from repro.netlist.hypergraph import Netlist


class NetlistBuilder:
    """Incrementally assemble a netlist, then :meth:`build` it.

    >>> b = NetlistBuilder()
    >>> a = b.add_cell("a")
    >>> c = b.add_cell("c")
    >>> _ = b.add_net("n1", [a, c])
    >>> b.build().num_cells
    2
    """

    def __init__(self) -> None:
        self._cell_names: List[str] = []
        self._cell_areas: List[float] = []
        self._cell_pin_counts: List[Optional[int]] = []
        self._cell_fixed: List[bool] = []
        self._net_names: List[str] = []
        self._net_cells: List[Tuple[int, ...]] = []
        self._name_to_cell: Dict[str, int] = {}
        self._name_to_net: Dict[str, int] = {}

    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        """Number of cells added so far."""
        return len(self._cell_names)

    @property
    def num_nets(self) -> int:
        """Number of nets added so far."""
        return len(self._net_names)

    def has_cell(self, name: str) -> bool:
        """True if a cell called ``name`` was already added."""
        return name in self._name_to_cell

    def cell_index(self, name: str) -> int:
        """Index of a previously added cell called ``name``."""
        try:
            return self._name_to_cell[name]
        except KeyError:
            raise NetlistError(f"unknown cell name {name!r}") from None

    # ------------------------------------------------------------------
    def add_cell(
        self,
        name: Optional[str] = None,
        area: float = 1.0,
        pin_count: Optional[int] = None,
        fixed: bool = False,
    ) -> int:
        """Add a cell and return its index.

        Args:
            name: unique name; auto-generated (``c<i>``) when omitted.
            area: placement area, must be positive.
            pin_count: explicit pin count; defaults to the number of incident
                nets at :meth:`build` time.
            fixed: mark the cell as a fixed terminal (IO pad).
        """
        index = len(self._cell_names)
        if name is None:
            name = f"c{index}"
        if name in self._name_to_cell:
            raise NetlistError(f"duplicate cell name {name!r}")
        if area <= 0:
            raise NetlistError(f"cell {name!r} has non-positive area {area}")
        if pin_count is not None and pin_count < 0:
            raise NetlistError(f"cell {name!r} has negative pin count {pin_count}")
        self._cell_names.append(name)
        self._cell_areas.append(float(area))
        self._cell_pin_counts.append(pin_count)
        self._cell_fixed.append(bool(fixed))
        self._name_to_cell[name] = index
        return index

    def add_cells(self, count: int, prefix: str = "c", **kwargs) -> List[int]:
        """Add ``count`` cells named ``<prefix><i>`` and return their indices."""
        start = len(self._cell_names)
        return [
            self.add_cell(name=f"{prefix}{start + i}", **kwargs) for i in range(count)
        ]

    def add_net(self, name: Optional[str] = None, cells: Iterable[int] = ()) -> int:
        """Add a net over ``cells`` (cell indices) and return the net index.

        Duplicate members are collapsed; a net must touch at least one cell.
        """
        index = len(self._net_names)
        if name is None:
            name = f"n{index}"
        if name in self._name_to_net:
            raise NetlistError(f"duplicate net name {name!r}")
        members: List[int] = []
        seen = set()
        for cell in cells:
            if not 0 <= cell < len(self._cell_names):
                raise NetlistError(f"net {name!r} references unknown cell {cell}")
            if cell not in seen:
                seen.add(cell)
                members.append(cell)
        if not members:
            raise NetlistError(f"net {name!r} has no cells")
        self._net_names.append(name)
        self._net_cells.append(tuple(members))
        self._name_to_net[name] = index
        return index

    def set_pin_count(self, cell: int, pin_count: int) -> None:
        """Override the explicit pin count of ``cell``."""
        if not 0 <= cell < len(self._cell_names):
            raise NetlistError(f"unknown cell index {cell}")
        if pin_count < 0:
            raise NetlistError(f"negative pin count {pin_count}")
        self._cell_pin_counts[cell] = pin_count

    def set_area(self, cell: int, area: float) -> None:
        """Override the area of ``cell``."""
        if not 0 <= cell < len(self._cell_names):
            raise NetlistError(f"unknown cell index {cell}")
        if area <= 0:
            raise NetlistError(f"non-positive area {area}")
        self._cell_areas[cell] = float(area)

    # ------------------------------------------------------------------
    def build(self, drop_singleton_nets: bool = False) -> Netlist:
        """Produce the immutable :class:`Netlist`.

        Args:
            drop_singleton_nets: silently discard nets with a single pin
                (they can never be cut and carry no connectivity).
        """
        kept = [
            index
            for index, members in enumerate(self._net_cells)
            if not (drop_singleton_nets and len(members) < 2)
        ]
        net_cells = [self._net_cells[index] for index in kept]
        net_ptr = np.zeros(len(kept) + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter(map(len, net_cells), dtype=np.int64, count=len(kept)),
            out=net_ptr[1:],
        )
        explicit = self._cell_pin_counts
        arrays = NetlistArrays.from_net_major(
            net_ptr=net_ptr,
            net_cells=np.fromiter(
                chain.from_iterable(net_cells), dtype=np.int64, count=int(net_ptr[-1])
            ),
            areas=np.array(self._cell_areas, dtype=np.float64),
            pin_counts=np.array([p or 0 for p in explicit], dtype=np.int64),
            fixed_mask=np.array(self._cell_fixed, dtype=bool),
            describe=lambda cell: (self._cell_names[cell], explicit[cell]),
            implicit_pins=np.array([p is None for p in explicit], dtype=bool),
        )
        return Netlist(
            arrays,
            NameTable.from_names(self._cell_names),
            NameTable.from_names([self._net_names[index] for index in kept]),
        )


def netlist_from_edges(
    num_cells: int, edges: Sequence[Tuple[int, int]], name_prefix: str = "c"
) -> Netlist:
    """Build a netlist whose nets are plain graph edges.

    Convenience used by tests and by graph-shaped generators: every edge
    becomes a 2-pin net.
    """
    builder = NetlistBuilder()
    builder.add_cells(num_cells, prefix=name_prefix)
    for i, (a, b) in enumerate(edges):
        builder.add_net(f"e{i}", [a, b])
    return builder.build()
