"""Core hypergraph netlist data structure.

Cells and nets are integer-indexed for speed; names are optional decoration.
A :class:`Netlist` holds its content in one read-only CSR
:class:`~repro.netlist.arrays.NetlistArrays` plus two
:class:`~repro.netlist.arrays.NameTable` objects, however it was made: by
:class:`repro.netlist.builder.NetlistBuilder`, by loading a pack file
(:mod:`repro.io.binfmt`, possibly views over an ``mmap``) or by splicing
an ECO delta (:func:`repro.incremental.apply_delta`).  The structure is
immutable, which lets the finder and the metrics share it freely across
the seed threads of :mod:`repro.service.pool`; derived per-netlist objects
(kernel tables, score contexts, the fingerprint) are built once each
through :meth:`Netlist.derived`.  Pickling ships the pack blob.

Per-attribute accessors answer from the arrays.  ``nets_of_cell``,
``cells_of_net`` and ``neighbors`` answer from a tuple adjacency that is
built from the arrays on the first call to one of them (the scalar paths
use it; the array kernels never do) and is never pickled.

Pin model
---------
A *pin* is an incidence between a cell and a net.  For metrics based on
Rent's rule the relevant quantity is the pin count of a cell.  By default a
cell's pin count equals the number of nets incident to it (every pin is
connected somewhere).  Generators that model gates with known pin counts
(e.g. a NAND4 has 5 pins) may set an explicit ``pin_count`` per cell, which
is then used by the density-aware metric; unconnected pins are thereby
representable.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Tuple, TypeVar

import numpy as np

from repro.errors import NetlistError
from repro.netlist.arrays import NameTable, NetlistArrays

_T = TypeVar("_T")


@dataclass(frozen=True)
class Cell:
    """A read-only view of one cell.

    Attributes:
        index: dense integer id in ``[0, num_cells)``.
        name: human-readable name (unique within the netlist).
        area: placement area of the cell (arbitrary units, default 1.0).
        pin_count: number of pins on the cell (>= number of incident nets).
        fixed: True for IO pads / fixed terminals that placement must not move.
    """

    index: int
    name: str
    area: float
    pin_count: int
    fixed: bool


@dataclass(frozen=True)
class Net:
    """A read-only view of one net (hyperedge).

    Attributes:
        index: dense integer id in ``[0, num_nets)``.
        name: human-readable name (unique within the netlist).
        cells: tuple of member cell indices (distinct, at least one).
    """

    index: int
    name: str
    cells: Tuple[int, ...]

    @property
    def degree(self) -> int:
        """Number of pins on the net."""
        return len(self.cells)


class Netlist:
    """Immutable hypergraph netlist ``G = (V, E)``.

    Do not call this constructor directly in application code; use
    :class:`repro.netlist.builder.NetlistBuilder`, which validates its
    input, or :func:`repro.io.binfmt.load_packed`.

    Args:
        arrays: the CSR storage of the connectivity and the per-cell
            attributes (may be views over an mmap).
        cell_names / net_names: the name tables, one name per cell / net.
        owner: optional object keeping the arrays' backing buffer alive (an
            ``mmap.mmap`` or the ``bytes`` blob).
        source: human-readable origin (the pack-file path), used in error
            messages and by the pool to ship the file to its workers.
    """

    __slots__ = (
        "_arrays",
        "_cell_table",
        "_net_table",
        "_owner",
        "source",
        "_total_pins",
        "_adjacency",
        "_derived",
        "_derived_lock",
    )

    def __init__(
        self,
        arrays: NetlistArrays,
        cell_names: NameTable,
        net_names: NameTable,
        owner: object = None,
        source: str = "",
    ) -> None:
        if len(cell_names) != arrays.num_cells:
            raise NetlistError(
                f"name table has {len(cell_names)} cell names for "
                f"{arrays.num_cells} cells"
            )
        if len(net_names) != arrays.num_nets:
            raise NetlistError(
                f"name table has {len(net_names)} net names for "
                f"{arrays.num_nets} nets"
            )
        self._arrays = arrays
        self._cell_table = cell_names
        self._net_table = net_names
        self._owner = owner
        self.source = source
        self._total_pins = int(arrays.pin_counts.sum())
        # (cells of each net, nets of each cell) as tuples, built on demand.
        self._adjacency: Optional[Tuple[Tuple[Tuple[int, ...], ...], ...]] = None
        self._derived: Dict = {}  # derived-object cache (see derived)
        self._derived_lock = threading.RLock()

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------
    @property
    def arrays(self) -> NetlistArrays:
        """The read-only CSR :class:`~repro.netlist.arrays.NetlistArrays`."""
        return self._arrays

    @property
    def cell_table(self) -> NameTable:
        """Cell names as a :class:`~repro.netlist.arrays.NameTable`."""
        return self._cell_table

    @property
    def net_table(self) -> NameTable:
        """Net names as a :class:`~repro.netlist.arrays.NameTable`."""
        return self._net_table

    def derived(self, key: Hashable, build: Callable[[], _T]) -> _T:
        """The derived object stored under ``key``, made by ``build()`` on
        first use.

        Sound because the netlist is immutable: entries never invalidate.
        Builds run under the netlist's lock, so threads that touch a fresh
        netlist at once build each entry exactly once; a hit takes no lock.
        Used for the :class:`~repro.metrics.gtl_score.ScoreContext`
        instances, the growers' tables and the fingerprint memo.  Never
        pickled.
        """
        try:
            return self._derived[key]
        except KeyError:
            pass
        with self._derived_lock:
            if key not in self._derived:
                self._derived[key] = build()
            return self._derived[key]

    @property
    def derived_cache(self) -> Dict:
        """The entries :meth:`derived` has built, keyed by the caller (for
        inspection; build entries through :meth:`derived`)."""
        return self._derived

    def _incidence(self) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
        if self._adjacency is None:
            arrays = self._arrays
            sides = []
            for ptr, flat in (
                (arrays.net_ptr, arrays.net_cells),
                (arrays.cell_ptr, arrays.cell_nets),
            ):
                bounds, items = ptr.tolist(), flat.tolist()
                sides.append(
                    tuple(tuple(items[a:b]) for a, b in zip(bounds, bounds[1:]))
                )
            self._adjacency = tuple(sides)
        return self._adjacency

    # ------------------------------------------------------------------
    # Sizes and global statistics
    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        """|V| — number of cells including fixed pads."""
        return self._arrays.num_cells

    @property
    def num_nets(self) -> int:
        """|E| — number of nets."""
        return self._arrays.num_nets

    @property
    def num_pins(self) -> int:
        """Total pin count over all cells."""
        return self._total_pins

    @property
    def num_incidences(self) -> int:
        """Total number of (cell, net) incidences (connected pins)."""
        return len(self._arrays.net_cells)

    @property
    def average_pins_per_cell(self) -> float:
        """``A(G)`` from the paper: total pins divided by |V|."""
        if not self.num_cells:
            raise NetlistError("average_pins_per_cell of an empty netlist")
        return self._total_pins / self.num_cells

    # ------------------------------------------------------------------
    # Cell accessors
    # ------------------------------------------------------------------
    def cell(self, index: int) -> Cell:
        """Read-only view of cell ``index``."""
        return Cell(
            index=index,
            name=self.cell_name(index),
            area=self.cell_area(index),
            pin_count=self.cell_pin_count(index),
            fixed=self.cell_is_fixed(index),
        )

    def cells(self) -> Iterator[Cell]:
        """Iterate over all cells as read-only views."""
        for index in range(self.num_cells):
            yield self.cell(index)

    @property
    def cell_names(self) -> Tuple[str, ...]:
        """All cell names in index order (one tuple, no per-cell calls)."""
        return self._cell_table.names()

    def cell_name(self, index: int) -> str:
        """Name of cell ``index``."""
        return self._cell_table.name(index)

    def cell_area(self, index: int) -> float:
        """Placement area of cell ``index``."""
        return float(self._arrays.areas[index])

    def cell_pin_count(self, index: int) -> int:
        """Pin count of cell ``index`` (explicit or incidence degree)."""
        return int(self._arrays.pin_counts[index])

    def cell_is_fixed(self, index: int) -> bool:
        """True when cell ``index`` is a fixed terminal (IO pad)."""
        return bool(self._arrays.fixed_mask[index])

    def cell_index(self, name: str) -> int:
        """Index of the cell called ``name``; raises :class:`NetlistError`."""
        try:
            return self._cell_table.index()[name]
        except KeyError:
            raise NetlistError(f"unknown cell name {name!r}") from None

    def nets_of_cell(self, index: int) -> Tuple[int, ...]:
        """Indices of nets incident to cell ``index``."""
        return self._incidence()[1][index]

    def cell_degree(self, index: int) -> int:
        """Number of nets incident to cell ``index``."""
        cell_ptr = self._arrays.cell_ptr
        return int(cell_ptr[index + 1] - cell_ptr[index])

    def movable_cells(self) -> List[int]:
        """Indices of all non-fixed cells."""
        return np.flatnonzero(~self._arrays.fixed_mask).tolist()

    def fixed_cells(self) -> List[int]:
        """Indices of all fixed cells (pads)."""
        return np.flatnonzero(self._arrays.fixed_mask).tolist()

    # ------------------------------------------------------------------
    # Net accessors
    # ------------------------------------------------------------------
    def net(self, index: int) -> Net:
        """Read-only view of net ``index``."""
        return Net(index=index, name=self.net_name(index), cells=self.cells_of_net(index))

    def nets(self) -> Iterator[Net]:
        """Iterate over all nets as read-only views."""
        for index in range(self.num_nets):
            yield self.net(index)

    @property
    def net_names(self) -> Tuple[str, ...]:
        """All net names in index order (one tuple, no per-net calls)."""
        return self._net_table.names()

    def net_name(self, index: int) -> str:
        """Name of net ``index``."""
        return self._net_table.name(index)

    def net_index(self, name: str) -> int:
        """Index of the net called ``name``; raises :class:`NetlistError`."""
        try:
            return self._net_table.index()[name]
        except KeyError:
            raise NetlistError(f"unknown net name {name!r}") from None

    def cells_of_net(self, index: int) -> Tuple[int, ...]:
        """Member cell indices of net ``index``."""
        return self._incidence()[0][index]

    def net_degree(self, index: int) -> int:
        """|e| — number of pins on net ``index``."""
        return int(self._arrays.net_degrees[index])

    # ------------------------------------------------------------------
    # Neighborhood
    # ------------------------------------------------------------------
    def neighbors(self, index: int) -> List[int]:
        """Distinct cells sharing at least one net with cell ``index``."""
        net_cells, cell_nets = self._incidence()
        seen = {index}
        result: List[int] = []
        for net in cell_nets[index]:
            for other in net_cells[net]:
                if other not in seen:
                    seen.add(other)
                    result.append(other)
        return result

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __reduce__(self):
        # Pickling ships the pack blob; the receiving process rebuilds the
        # netlist over it in place.
        from repro.io.binfmt import netlist_from_bytes, serialize_netlist

        return (netlist_from_bytes, (serialize_netlist(self),))

    def __repr__(self) -> str:
        return (
            f"Netlist(cells={self.num_cells}, nets={self.num_nets}, "
            f"pins={self.num_pins})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Netlist):
            return NotImplemented
        mine, theirs = self._arrays, other._arrays
        return (
            np.array_equal(mine.net_ptr, theirs.net_ptr)
            and np.array_equal(mine.net_cells, theirs.net_cells)
            and np.array_equal(mine.areas, theirs.areas)
            and np.array_equal(mine.pin_counts, theirs.pin_counts)
            and np.array_equal(mine.fixed_mask, theirs.fixed_mask)
            and self._cell_table == other._cell_table
            and self._net_table == other._net_table
        )

    def __hash__(self) -> int:
        return hash((self.num_cells, self.num_nets, self.num_incidences))
