"""A :class:`Netlist` served directly from its flat-array (CSR) view.

:class:`ArrayBackedNetlist` is the in-memory face of the zero-copy
transport path (:mod:`repro.io.binfmt`): the content lives in one
:class:`~repro.netlist.arrays.NetlistArrays` — possibly views over an
``mmap``-ed pack file — plus two compact name tables (UTF-8 blob +
offsets).  Nothing else is materialized up front, so a worker process
that maps a shared design pays O(1) private memory for it, not O(pins)
of Python tuples.

Two tiers of accessors keep that promise without forking the API:

* every public :class:`Netlist` accessor is overridden to answer straight
  from the arrays (slices, ``tolist()``, per-index name decodes) — the
  paths the detection kernels touch never materialize anything;
* the base class's private tuple slots (``_net_cells``, ``_cell_names``,
  ...) are shadowed by *materialize-on-demand* properties, so any base
  method or external caller that reaches for them (``Netlist.__eq__``
  from the eager side, :mod:`repro.netlist.validate`, ...) still sees
  exactly the eager structures — built lazily, once, at the usual memory
  cost.  Correctness never depends on which tier answers.

Pickling round-trips through the binary container itself
(:func:`repro.io.binfmt.netlist_from_bytes`), so a pickled netlist (a
sharded sweep's jobs, for one) travels in the compact array form, never
the tuple form.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import NetlistError
from repro.netlist.arrays import NetlistArrays
from repro.netlist.hypergraph import Cell, Net, Netlist


class NameTable:
    """Immutable name list stored as one UTF-8 blob plus offsets.

    ``offsets`` is an int64 array of ``len + 1`` byte offsets into
    ``blob`` (uint8); name ``i`` is ``blob[offsets[i]:offsets[i+1]]``.
    This is the on-disk (pack-file) representation — decoding happens
    per lookup, the full tuple and the name->index dict only on demand.
    """

    __slots__ = ("offsets", "blob", "_names", "_index")

    def __init__(self, offsets: np.ndarray, blob: np.ndarray) -> None:
        self.offsets = offsets
        self.blob = blob
        self._names: Optional[Tuple[str, ...]] = None
        self._index: Optional[Dict[str, int]] = None

    @classmethod
    def from_names(cls, names) -> "NameTable":
        encoded = [name.encode("utf-8") for name in names]
        offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded)),
            out=offsets[1:],
        )
        blob = np.frombuffer(b"".join(encoded), dtype=np.uint8)
        table = cls(offsets, blob)
        table._names = tuple(names)
        return table

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def name(self, index: int) -> str:
        if self._names is not None:
            return self._names[index]
        if not 0 <= index < len(self):
            raise IndexError(index)
        start, end = int(self.offsets[index]), int(self.offsets[index + 1])
        return self.blob[start:end].tobytes().decode("utf-8")

    def names(self) -> Tuple[str, ...]:
        """All names as a tuple (decoded once, then cached)."""
        if self._names is None:
            data = self.blob.tobytes()
            bounds = self.offsets.tolist()
            self._names = tuple(
                data[bounds[i]:bounds[i + 1]].decode("utf-8")
                for i in range(len(self))
            )
        return self._names

    def index(self) -> Dict[str, int]:
        """The name -> position dict (built once, on demand)."""
        if self._index is None:
            self._index = {name: i for i, name in enumerate(self.names())}
        return self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NameTable):
            return NotImplemented
        return np.array_equal(self.offsets, other.offsets) and np.array_equal(
            self.blob, other.blob
        )

    def __hash__(self) -> int:
        return hash((len(self), int(self.offsets[-1]) if len(self.offsets) else 0))


#: ``Netlist.derived_cache`` key memoizing :func:`name_tables` of a netlist
#: that is not array-backed.
_NAME_TABLES_KEY = "name-tables"


def name_tables(netlist: Netlist) -> Tuple[NameTable, NameTable]:
    """The ``(cell, net)`` :class:`NameTable` pair of any netlist.

    An :class:`ArrayBackedNetlist` answers with its own tables; any other
    netlist encodes its names once and memoizes the pair in
    ``derived_cache`` (sound: netlists are immutable).
    """
    if isinstance(netlist, ArrayBackedNetlist):
        return netlist._cell_table, netlist._net_table
    tables = netlist.derived_cache.get(_NAME_TABLES_KEY)
    if tables is None:
        tables = netlist.derived_cache[_NAME_TABLES_KEY] = (
            NameTable.from_names(netlist.cell_names),
            NameTable.from_names(netlist.net_names),
        )
    return tables


def _materializing(key: str, build):
    """A property that builds the eager structure once and caches it."""

    def getter(self: "ArrayBackedNetlist"):
        value = self._mat.get(key)
        if value is None:
            value = self._mat[key] = build(self)
        return value

    getter.__name__ = key
    return property(getter)


class ArrayBackedNetlist(Netlist):
    """A netlist whose single source of truth is a :class:`NetlistArrays`.

    Do not construct directly — use :func:`repro.io.binfmt.load_packed`,
    :func:`repro.io.binfmt.netlist_from_buffer` or
    :func:`repro.io.binfmt.netlist_from_netlist_arrays`.

    Args:
        arrays: the CSR view holding the full connectivity and per-cell
            attributes (may be backed by an mmap).
        cell_names / net_names: :class:`NameTable` over the same buffer.
        owner: optional object keeping the backing buffer alive (an
            ``mmap.mmap`` or the ``bytes`` blob); held for the lifetime of
            this netlist.
        source: human-readable origin (the pack-file path), used in error
            messages and by the pool to ship the file to its workers.
    """

    __slots__ = ("_cell_table", "_net_table", "_mat", "_owner", "source")

    def __init__(
        self,
        arrays: NetlistArrays,
        cell_names: NameTable,
        net_names: NameTable,
        owner: object = None,
        source: str = "",
    ) -> None:
        # Netlist.__init__ is deliberately not called: the tuple slots it
        # would fill are shadowed below by materialize-on-demand properties.
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
        self._derived = {}
        self._total_pins = int(arrays.pin_counts.sum())
        self._cell_table = cell_names
        self._net_table = net_names
        self._mat: Dict[str, object] = {}
        self._owner = owner
        self.source = source

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        return self._arrays.num_cells

    @property
    def num_nets(self) -> int:
        return self._arrays.num_nets

    @property
    def num_incidences(self) -> int:
        return len(self._arrays.net_cells)

    @property
    def average_pins_per_cell(self) -> float:
        if not self.num_cells:
            raise NetlistError("average_pins_per_cell of an empty netlist")
        return self._total_pins / self.num_cells

    # ------------------------------------------------------------------
    # Cell accessors (array-served, nothing materialized)
    # ------------------------------------------------------------------
    def cell(self, index: int) -> Cell:
        return Cell(
            index=index,
            name=self.cell_name(index),
            area=self.cell_area(index),
            pin_count=self.cell_pin_count(index),
            fixed=self.cell_is_fixed(index),
        )

    def cells(self) -> Iterator[Cell]:
        for index in range(self.num_cells):
            yield self.cell(index)

    def cell_name(self, index: int) -> str:
        return self._cell_table.name(index)

    def cell_area(self, index: int) -> float:
        return float(self._arrays.areas[index])

    def cell_pin_count(self, index: int) -> int:
        return int(self._arrays.pin_counts[index])

    def cell_is_fixed(self, index: int) -> bool:
        return bool(self._arrays.fixed_mask[index])

    def cell_index(self, name: str) -> int:
        try:
            return self._cell_table.index()[name]
        except KeyError:
            raise NetlistError(f"unknown cell name {name!r}") from None

    def nets_of_cell(self, index: int) -> Tuple[int, ...]:
        arrays = self._arrays
        start, end = arrays.cell_ptr[index], arrays.cell_ptr[index + 1]
        return tuple(arrays.cell_nets[start:end].tolist())

    def cell_degree(self, index: int) -> int:
        arrays = self._arrays
        return int(arrays.cell_ptr[index + 1] - arrays.cell_ptr[index])

    def movable_cells(self) -> List[int]:
        return np.flatnonzero(~self._arrays.fixed_mask).tolist()

    def fixed_cells(self) -> List[int]:
        return np.flatnonzero(self._arrays.fixed_mask).tolist()

    # ------------------------------------------------------------------
    # Net accessors
    # ------------------------------------------------------------------
    def net(self, index: int) -> Net:
        return Net(
            index=index, name=self.net_name(index), cells=self.cells_of_net(index)
        )

    def nets(self) -> Iterator[Net]:
        for index in range(self.num_nets):
            yield self.net(index)

    def net_name(self, index: int) -> str:
        return self._net_table.name(index)

    def net_index(self, name: str) -> int:
        try:
            return self._net_table.index()[name]
        except KeyError:
            raise NetlistError(f"unknown net name {name!r}") from None

    def cells_of_net(self, index: int) -> Tuple[int, ...]:
        arrays = self._arrays
        start, end = arrays.net_ptr[index], arrays.net_ptr[index + 1]
        return tuple(arrays.net_cells[start:end].tolist())

    def net_degree(self, index: int) -> int:
        arrays = self._arrays
        return int(arrays.net_ptr[index + 1] - arrays.net_ptr[index])

    def neighbors(self, index: int) -> List[int]:
        # Same visit order as the eager implementation: nets in incidence
        # order, members in net order, first occurrence wins.
        arrays = self._arrays
        seen = {index}
        result: List[int] = []
        nets = arrays.cell_nets[
            arrays.cell_ptr[index]:arrays.cell_ptr[index + 1]
        ].tolist()
        for net in nets:
            members = arrays.net_cells[
                arrays.net_ptr[net]:arrays.net_ptr[net + 1]
            ].tolist()
            for other in members:
                if other not in seen:
                    seen.add(other)
                    result.append(other)
        return result

    # ------------------------------------------------------------------
    # Materialize-on-demand shadows of the eager tuple slots.  Anything
    # that reaches below the public API (Netlist.__eq__ called from the
    # eager side, netlist.validate, ad-hoc callers) lands here and gets
    # the exact eager structures, built once.
    # ------------------------------------------------------------------
    _cell_names = _materializing("_cell_names", lambda s: s._cell_table.names())
    _net_names = _materializing("_net_names", lambda s: s._net_table.names())
    _cell_areas = _materializing(
        "_cell_areas", lambda s: tuple(s._arrays.areas.tolist())
    )
    _cell_pin_counts = _materializing(
        "_cell_pin_counts", lambda s: tuple(s._arrays.pin_counts.tolist())
    )
    _cell_fixed = _materializing(
        "_cell_fixed", lambda s: tuple(s._arrays.fixed_mask.tolist())
    )
    _net_cells = _materializing(
        "_net_cells",
        lambda s: tuple(s.cells_of_net(n) for n in range(s.num_nets)),
    )
    _cell_nets = _materializing(
        "_cell_nets",
        lambda s: tuple(s.nets_of_cell(c) for c in range(s.num_cells)),
    )
    _name_to_cell = _materializing("_name_to_cell", lambda s: s._cell_table.index())
    _name_to_net = _materializing("_name_to_net", lambda s: s._net_table.index())

    # ------------------------------------------------------------------
    # Dunders
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Netlist):
            return NotImplemented
        if isinstance(other, ArrayBackedNetlist):
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
        return super().__eq__(other)

    __hash__ = Netlist.__hash__

    def __reduce__(self):
        # Round-trip through the binary container: pickling ships the
        # compact array form, and the receiving process rebuilds an
        # ArrayBackedNetlist over the blob in place.
        from repro.io.binfmt import netlist_from_bytes, serialize_netlist

        return (netlist_from_bytes, (serialize_netlist(self),))


__all__ = ["ArrayBackedNetlist", "NameTable", "name_tables"]
