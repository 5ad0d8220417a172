"""Array-backed view of a :class:`~repro.netlist.hypergraph.Netlist`.

The geometry hot paths (HPWL, RUDY demand spreading, quadratic system
assembly) all reduce to per-net scans over pin coordinates.  Instead of
looping over ``cells_of_net`` tuples in Python, they operate on one shared
CSR-style flat view of the hypergraph:

* ``net_ptr`` / ``net_cells`` — net -> member cells, net-major;
* ``cell_ptr`` / ``cell_nets`` — cell -> incident nets, cell-major;
* ``areas`` / ``pin_counts`` / ``fixed_mask`` — per-cell attributes.

With the flat pin arrays, per-net bounding boxes are two ``reduceat`` calls
and spring index arrays are ``repeat``/``triu_indices`` gathers — no Python
loop over pins anywhere.

The view is built lazily on first use and cached on the netlist (the cache
slot is excluded from pickling, so shipping a netlist to a worker process
never ships the arrays).  All arrays are marked read-only: the netlist is
immutable and its array view must be too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netlist.hypergraph import Netlist


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


def _csr(segments, count: int, total: int):
    ptr = np.zeros(count + 1, dtype=np.int64)
    lengths = np.fromiter(
        (len(segment) for segment in segments), dtype=np.int64, count=count
    )
    np.cumsum(lengths, out=ptr[1:])
    flat = np.fromiter(
        (item for segment in segments for item in segment),
        dtype=np.int64,
        count=total,
    )
    return ptr, flat, lengths


def build_netlist_arrays(netlist: "Netlist") -> NetlistArrays:
    """Build the flat-array view of ``netlist`` (use ``netlist.arrays``)."""
    num_cells = netlist.num_cells
    num_nets = netlist.num_nets
    net_segments = [netlist.cells_of_net(n) for n in range(num_nets)]
    cell_segments = [netlist.nets_of_cell(c) for c in range(num_cells)]
    total = sum(len(segment) for segment in net_segments)
    net_ptr, net_cells, net_degrees = _csr(net_segments, num_nets, total)
    cell_ptr, cell_nets, _ = _csr(cell_segments, num_cells, total)
    pin_net = np.repeat(np.arange(num_nets, dtype=np.int64), net_degrees)
    areas = np.fromiter(
        (netlist.cell_area(c) for c in range(num_cells)),
        dtype=np.float64,
        count=num_cells,
    )
    pin_counts = np.fromiter(
        (netlist.cell_pin_count(c) for c in range(num_cells)),
        dtype=np.int64,
        count=num_cells,
    )
    fixed_mask = np.fromiter(
        (netlist.cell_is_fixed(c) for c in range(num_cells)),
        dtype=bool,
        count=num_cells,
    )
    arrays = NetlistArrays(
        net_ptr=net_ptr,
        net_cells=net_cells,
        cell_ptr=cell_ptr,
        cell_nets=cell_nets,
        net_degrees=net_degrees,
        pin_net=pin_net,
        areas=areas,
        pin_counts=pin_counts,
        fixed_mask=fixed_mask,
    )
    for array in vars(arrays).values():
        array.setflags(write=False)
    return arrays
