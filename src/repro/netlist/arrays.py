"""Flat-array (CSR) storage of a :class:`~repro.netlist.hypergraph.Netlist`.

Every netlist holds its content in one :class:`NetlistArrays` plus two
:class:`NameTable` objects, whichever way it was made (builder, pack
file, ECO splice):

* ``net_ptr`` / ``net_cells`` — net -> member cells, net-major;
* ``cell_ptr`` / ``cell_nets`` — cell -> incident nets, cell-major;
* ``areas`` / ``pin_counts`` / ``fixed_mask`` — per-cell attributes;
* cell and net names as one UTF-8 blob plus offsets each.

With the flat pin arrays, per-net bounding boxes are two ``reduceat`` calls
and spring index arrays are ``repeat``/``triu_indices`` gathers — no Python
loop over pins anywhere.  :meth:`NetlistArrays.from_net_major` is the one
constructor: callers supply the net-major side and the cell attributes,
and it derives the rest.  All arrays are read-only: the netlist is
immutable and so is its storage.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.errors import NetlistError


def gather_segments(
    flat: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Concatenate ``flat[starts[i] : starts[i] + lengths[i]]`` segments.

    The CSR equivalent of ``np.concatenate([...])`` over many slices without
    a Python loop; segment order (and order within segments) is preserved,
    which the detection kernel relies on for bit-exact accumulation order.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return flat[:0]
    starts = np.asarray(starts, dtype=np.int64)
    # Contiguity fast path: when the segments tile one contiguous run (each
    # starts where the previous one ends — e.g. whole-CSR gathers), the
    # answer is a slice view, no index array and no copy.
    if len(starts) and np.array_equal(
        starts[1:], starts[:-1] + lengths[:-1]
    ):
        begin = int(starts[0])
        return flat[begin:begin + total]
    offsets = np.zeros(len(lengths), dtype=np.int64)
    np.cumsum(lengths[:-1], out=offsets[1:])
    return flat[np.arange(total, dtype=np.int64) + np.repeat(starts - offsets, lengths)]


@dataclass(frozen=True)
class NetlistArrays:
    """Read-only flat-array (CSR) view of one netlist.

    Attributes:
        net_ptr: ``(num_nets + 1,)`` int64 segment pointers into
            ``net_cells``; net ``n`` owns ``net_cells[net_ptr[n]:net_ptr[n+1]]``.
        net_cells: flat member-cell indices, net-major.
        cell_ptr: ``(num_cells + 1,)`` int64 segment pointers into
            ``cell_nets``.
        cell_nets: flat incident-net indices, cell-major.
        net_degrees: ``(num_nets,)`` pins per net (``diff(net_ptr)``).
        pin_net: net index owning each ``net_cells`` slot (segment ids,
            handy for broadcasting per-net values back onto pins).
        areas: ``(num_cells,)`` float64 cell areas.
        pin_counts: ``(num_cells,)`` int64 cell pin counts.
        fixed_mask: ``(num_cells,)`` bool, True for fixed terminals.
    """

    net_ptr: np.ndarray
    net_cells: np.ndarray
    cell_ptr: np.ndarray
    cell_nets: np.ndarray
    net_degrees: np.ndarray
    pin_net: np.ndarray
    areas: np.ndarray
    pin_counts: np.ndarray
    fixed_mask: np.ndarray

    @property
    def num_cells(self) -> int:
        return len(self.cell_ptr) - 1

    @property
    def num_nets(self) -> int:
        return len(self.net_ptr) - 1

    def net_bboxes(self, x: np.ndarray, y: np.ndarray):
        """Per-net bounding boxes ``(x0, x1, y0, y1)`` for pin coordinates.

        ``x``/``y`` are per-cell coordinate arrays; every returned array has
        one entry per net (the shared gather + ``reduceat`` kernel behind
        batched HPWL and RUDY).  Requires at least one pin per net, which
        the builder guarantees.
        """
        xs = x[self.net_cells]
        ys = y[self.net_cells]
        starts = self.net_ptr[:-1]
        return (
            np.minimum.reduceat(xs, starts),
            np.maximum.reduceat(xs, starts),
            np.minimum.reduceat(ys, starts),
            np.maximum.reduceat(ys, starts),
        )

    @classmethod
    def from_net_major(
        cls,
        net_ptr: np.ndarray,
        net_cells: np.ndarray,
        areas: np.ndarray,
        pin_counts: np.ndarray,
        fixed_mask: np.ndarray,
        describe: Callable[[int], Tuple[str, object]],
        implicit_pins: Optional[np.ndarray] = None,
    ) -> "NetlistArrays":
        """Read-only arrays from the net-major side and the cell attributes.

        Derives the net degrees, ``pin_net`` and the cell-major side (one
        stable argsort of the pins by cell, so each cell lists its nets in
        net order).  Cells flagged in ``implicit_pins`` take their incidence
        degree as pin count; any other cell declaring fewer pins than it
        has nets raises :class:`NetlistError`, naming the first such cell
        through ``describe(index) -> (name, declared pin count)``.
        """
        num_cells, num_nets = len(areas), len(net_ptr) - 1
        net_degrees = np.diff(net_ptr)
        pin_net = np.repeat(np.arange(num_nets, dtype=np.int64), net_degrees)
        cell_degrees = np.bincount(net_cells, minlength=num_cells)
        if implicit_pins is not None:
            pin_counts = np.where(implicit_pins, cell_degrees, pin_counts)
        short = np.flatnonzero(pin_counts < cell_degrees)
        if short.size:
            name, declared = describe(int(short[0]))
            raise NetlistError(
                f"cell {name!r} declares {declared} pins but touches "
                f"{int(cell_degrees[short[0]])} nets"
            )
        cell_ptr = np.zeros(num_cells + 1, dtype=np.int64)
        np.cumsum(cell_degrees, out=cell_ptr[1:])
        arrays = cls(
            net_ptr=net_ptr,
            net_cells=net_cells,
            cell_ptr=cell_ptr,
            cell_nets=pin_net[np.argsort(net_cells, kind="stable")],
            net_degrees=net_degrees,
            pin_net=pin_net,
            areas=areas,
            pin_counts=pin_counts,
            fixed_mask=fixed_mask,
        )
        for array in vars(arrays).values():
            array.setflags(write=False)
        return arrays


class NameTable:
    """Immutable name list stored as one UTF-8 blob plus offsets.

    ``offsets`` is an int64 array of ``len + 1`` byte offsets into
    ``blob`` (uint8); name ``i`` is ``blob[offsets[i]:offsets[i+1]]``.
    This is also the pack-file layout — decoding happens per lookup, the
    full tuple and the name->index dict only on demand.
    """

    __slots__ = ("offsets", "blob", "_names", "_index", "_digest")

    def __init__(self, offsets: np.ndarray, blob: np.ndarray) -> None:
        self.offsets = offsets
        self.blob = blob
        self._names: Optional[Tuple[str, ...]] = None
        self._index: Optional[Dict[str, int]] = None
        self._digest: Optional[str] = None

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

    def digest(self) -> str:
        """SHA-256 of the names in order (offsets, then blob; computed
        once).  Netlists that share a table, such as an ECO splice that
        adds or removes no cell and its base, share the digest too."""
        if self._digest is None:
            digest = hashlib.sha256()
            digest.update(np.ascontiguousarray(self.offsets, dtype="<i8"))
            digest.update(np.ascontiguousarray(self.blob))
            self._digest = digest.hexdigest()
        return self._digest

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NameTable):
            return NotImplemented
        return np.array_equal(self.offsets, other.offsets) and np.array_equal(
            self.blob, other.blob
        )

    def __hash__(self) -> int:
        return hash((len(self), int(self.offsets[-1]) if len(self.offsets) else 0))
