"""Group-level operations on netlists.

These are the primitives the metrics and the finder are built from: net cut
``T(C)``, group pin counts, boundary exploration, induced sub-netlists, and
an incremental :class:`PrefixScanner` that evaluates every prefix of a linear
ordering in time linear in the total pin count (the work Phase II needs).

The hot primitives exist in two backends (see
:mod:`repro.netlist.backend`): the pure-Python dict/set reference
implementations, and CSR-array versions over
:class:`~repro.netlist.arrays.NetlistArrays` that compute whole prefix
curves (:func:`scan_ordering_curves`) or one group's statistics
(:func:`group_stats`) in a handful of vectorized expressions.  All group
statistics are integers, so the two backends agree bit for bit.

The finder itself rarely calls the array versions any more: its compiled
grow kernel records an ordering's :class:`PrefixCurves` while it grows it
(:func:`repro.finder.kernel.grow_ordering`), and Phase III scores a whole
candidate family in one signature pass (:mod:`repro.finder.refine`).
:func:`scan_ordering_curves` is the numpy backend's fallback when the
kernel cannot be loaded, and the oracle the kernel's curves are tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np

from repro.errors import NetlistError
from repro.netlist.backend import resolve_backend
from repro.netlist.hypergraph import Netlist


def _as_set(group: Iterable[int]) -> Set[int]:
    return group if isinstance(group, set) else set(group)


def _as_index_array(group: Iterable[int]) -> np.ndarray:
    """Distinct member indices of ``group`` as a sorted int64 array."""
    if isinstance(group, np.ndarray):
        return np.unique(group.astype(np.int64, copy=False))
    members = group if isinstance(group, (set, frozenset, list, tuple)) else list(group)
    return np.unique(np.fromiter(members, dtype=np.int64, count=len(members)))


def cut_size(netlist: Netlist, group: Iterable[int]) -> int:
    """``T(C)``: number of nets with pins both inside and outside ``group``."""
    members = _as_set(group)
    if not members:
        return 0
    seen_nets: Set[int] = set()
    cut = 0
    for cell in members:
        for net in netlist.nets_of_cell(cell):
            if net in seen_nets:
                continue
            seen_nets.add(net)
            cells = netlist.cells_of_net(net)
            inside = sum(1 for c in cells if c in members)
            if 0 < inside < len(cells):
                cut += 1
    return cut


def boundary_nets(netlist: Netlist, group: Iterable[int]) -> List[int]:
    """Indices of the nets that cross the boundary of ``group``."""
    members = _as_set(group)
    result: List[int] = []
    seen: Set[int] = set()
    for cell in members:
        for net in netlist.nets_of_cell(cell):
            if net in seen:
                continue
            seen.add(net)
            cells = netlist.cells_of_net(net)
            inside = sum(1 for c in cells if c in members)
            if 0 < inside < len(cells):
                result.append(net)
    return result


def internal_nets(netlist: Netlist, group: Iterable[int]) -> List[int]:
    """Indices of nets entirely contained in ``group``."""
    members = _as_set(group)
    result: List[int] = []
    seen: Set[int] = set()
    for cell in members:
        for net in netlist.nets_of_cell(cell):
            if net in seen:
                continue
            seen.add(net)
            if all(c in members for c in netlist.cells_of_net(net)):
                result.append(net)
    return result


def external_pin_count(netlist: Netlist, net: int, group: Iterable[int]) -> int:
    """``lambda(e)``: pins of ``net`` lying outside ``group``."""
    members = _as_set(group)
    return sum(1 for c in netlist.cells_of_net(net) if c not in members)


def group_pin_count(netlist: Netlist, group: Iterable[int]) -> int:
    """Total pins of the cells in ``group`` (explicit pin counts honored)."""
    return sum(netlist.cell_pin_count(c) for c in group)


def neighbors_of_group(netlist: Netlist, group: Iterable[int]) -> List[int]:
    """Distinct cells outside ``group`` sharing a net with it."""
    members = _as_set(group)
    seen: Set[int] = set()
    result: List[int] = []
    for cell in members:
        for net in netlist.nets_of_cell(cell):
            for other in netlist.cells_of_net(net):
                if other not in members and other not in seen:
                    seen.add(other)
                    result.append(other)
    return result


@dataclass(frozen=True)
class GroupStats:
    """Summary statistics of one cell group.

    Attributes:
        size: |C|, number of cells.
        cut: T(C), nets crossing the boundary.
        pins: total pins of cells in C.
        internal_nets: nets fully inside C.
        avg_pins: A_C = pins / size.
    """

    size: int
    cut: int
    pins: int
    internal_nets: int
    avg_pins: float


def group_stats(netlist: Netlist, group: Iterable[int]) -> GroupStats:
    """Compute :class:`GroupStats` for ``group`` in one pass.

    Runs the CSR-array kernel or the scalar reference (see
    :mod:`repro.netlist.backend`); both return identical statistics — all
    fields are integer counts plus one exact division.
    """
    if resolve_backend() == "numpy":
        return _group_stats_arrays(netlist, group)
    members = _as_set(group)
    if not members:
        raise NetlistError("group_stats of an empty group")
    seen: Set[int] = set()
    cut = 0
    internal = 0
    for cell in members:
        for net in netlist.nets_of_cell(cell):
            if net in seen:
                continue
            seen.add(net)
            cells = netlist.cells_of_net(net)
            inside = sum(1 for c in cells if c in members)
            if inside == len(cells):
                internal += 1
            elif inside > 0:
                cut += 1
    pins = group_pin_count(netlist, members)
    return GroupStats(
        size=len(members),
        cut=cut,
        pins=pins,
        internal_nets=internal,
        avg_pins=pins / len(members),
    )


def _group_stats_arrays(netlist: Netlist, group: Iterable[int]) -> GroupStats:
    """CSR-array implementation of :func:`group_stats`."""
    from repro.netlist.arrays import gather_segments

    members = _as_index_array(group)
    size = int(members.size)
    if not size:
        raise NetlistError("group_stats of an empty group")
    arrays = netlist.arrays
    starts = arrays.cell_ptr[members]
    lengths = arrays.cell_ptr[members + 1] - starts
    incident = gather_segments(arrays.cell_nets, starts, lengths)
    nets, inside = np.unique(incident, return_counts=True)
    full = inside == arrays.net_degrees[nets]
    pins = int(arrays.pin_counts[members].sum())
    return GroupStats(
        size=size,
        cut=int(np.count_nonzero(~full)),
        pins=pins,
        internal_nets=int(np.count_nonzero(full)),
        avg_pins=pins / size,
    )


def group_connected(netlist: Netlist, group: Iterable[int]) -> bool:
    """True when ``group`` induces one connected hypergraph component.

    Empty groups are not connected.  The array backend runs a frontier BFS
    over the CSR view (whole frontier levels expanded per step); the scalar
    reference walks cell by cell.
    """
    if resolve_backend() == "numpy":
        return _group_connected_arrays(netlist, group)
    members = _as_set(group)
    if not members:
        return False
    start = next(iter(members))
    seen = {start}
    stack = [start]
    while stack:
        cell = stack.pop()
        for net in netlist.nets_of_cell(cell):
            for other in netlist.cells_of_net(net):
                if other in members and other not in seen:
                    seen.add(other)
                    stack.append(other)
    return len(seen) == len(members)


def _group_connected_arrays(netlist: Netlist, group: Iterable[int]) -> bool:
    """CSR frontier-BFS implementation of :func:`group_connected`."""
    from repro.netlist.arrays import gather_segments

    members = _as_index_array(group)
    if not members.size:
        return False
    arrays = netlist.arrays
    # ``unvisited`` starts as the group; ``open_nets`` as every net.  Each
    # level's newly reached nets and cells are deduplicated through a
    # whole-design mask (no sort).
    unvisited = np.zeros(arrays.num_cells, dtype=bool)
    unvisited[members] = True
    open_nets = np.ones(arrays.num_nets, dtype=bool)
    frontier = members[:1]
    unvisited[frontier] = False
    reached = 1
    while frontier.size:
        starts = arrays.cell_ptr[frontier]
        nets = gather_segments(
            arrays.cell_nets, starts, arrays.cell_ptr[frontier + 1] - starts
        )
        level = np.zeros(arrays.num_nets, dtype=bool)
        level[nets] = True
        level &= open_nets
        open_nets &= ~level
        nets = np.flatnonzero(level)
        starts = arrays.net_ptr[nets]
        cells = gather_segments(
            arrays.net_cells, starts, arrays.net_ptr[nets + 1] - starts
        )
        level = np.zeros(arrays.num_cells, dtype=bool)
        level[cells] = True
        level &= unvisited
        unvisited &= ~level
        frontier = np.flatnonzero(level)
        reached += int(frontier.size)
    return reached == int(members.size)


def induced_netlist(
    netlist: Netlist, group: Iterable[int]
) -> Tuple[Netlist, Dict[int, int]]:
    """Sub-netlist induced by ``group``.

    Nets are restricted to their members inside ``group``; nets left with
    fewer than two pins are dropped.  Returns the sub-netlist and a mapping
    from original cell index to new index.
    """
    from repro.netlist.builder import NetlistBuilder

    members = sorted(_as_set(group))
    if not members:
        raise NetlistError("induced_netlist of an empty group")
    mapping: Dict[int, int] = {}
    builder = NetlistBuilder()
    for cell in members:
        view = netlist.cell(cell)
        mapping[cell] = builder.add_cell(
            name=view.name,
            area=view.area,
            pin_count=None,  # recomputed from restricted incidences
            fixed=view.fixed,
        )
    member_set = set(members)
    seen: Set[int] = set()
    for cell in members:
        for net in netlist.nets_of_cell(cell):
            if net in seen:
                continue
            seen.add(net)
            inside = [c for c in netlist.cells_of_net(net) if c in member_set]
            if len(inside) >= 2:
                builder.add_net(netlist.net_name(net), [mapping[c] for c in inside])
    return builder.build(), mapping


def connected_components(netlist: Netlist) -> List[List[int]]:
    """Connected components of the netlist (cells connected through nets)."""
    seen = [False] * netlist.num_cells
    components: List[List[int]] = []
    for start in range(netlist.num_cells):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        component = []
        while stack:
            cell = stack.pop()
            component.append(cell)
            for net in netlist.nets_of_cell(cell):
                for other in netlist.cells_of_net(net):
                    if not seen[other]:
                        seen[other] = True
                        stack.append(other)
        components.append(component)
    return components


class PrefixScanner:
    """Incrementally track cut and pin statistics of ordering prefixes.

    Feed cells one by one with :meth:`add`; after each addition the current
    prefix ``C_k`` statistics are available in O(1).  Total work over a whole
    ordering is proportional to the pin count of the added cells, which gives
    Phase II its O(Z) scan.
    """

    def __init__(self, netlist: Netlist) -> None:
        self._netlist = netlist
        self._inside_count: Dict[int, int] = {}
        self._in_group: Set[int] = set()
        self._cut = 0
        self._pins = 0
        self._internal = 0

    @property
    def size(self) -> int:
        """Current prefix size |C_k|."""
        return len(self._in_group)

    @property
    def cut(self) -> int:
        """Current prefix cut T(C_k)."""
        return self._cut

    @property
    def pins(self) -> int:
        """Total pins of the current prefix."""
        return self._pins

    @property
    def internal_nets(self) -> int:
        """Nets fully inside the current prefix."""
        return self._internal

    @property
    def avg_pins(self) -> float:
        """A_C of the current prefix."""
        if not self._in_group:
            raise NetlistError("avg_pins of an empty prefix")
        return self._pins / len(self._in_group)

    def __contains__(self, cell: int) -> bool:
        return cell in self._in_group

    def add(self, cell: int) -> None:
        """Extend the prefix with ``cell`` and update all statistics."""
        if cell in self._in_group:
            raise NetlistError(f"cell {cell} added to prefix twice")
        self._in_group.add(cell)
        self._pins += self._netlist.cell_pin_count(cell)
        for net in self._netlist.nets_of_cell(cell):
            degree = self._netlist.net_degree(net)
            inside = self._inside_count.get(net, 0) + 1
            self._inside_count[net] = inside
            if inside == 1:
                if degree > 1:
                    self._cut += 1  # net becomes crossing
                else:
                    self._internal += 1  # single-pin net is trivially internal
            elif inside == degree:
                self._cut -= 1  # net fully absorbed
                self._internal += 1

    def stats(self) -> GroupStats:
        """Snapshot of the current prefix as :class:`GroupStats`."""
        if not self._in_group:
            raise NetlistError("stats of an empty prefix")
        return GroupStats(
            size=self.size,
            cut=self._cut,
            pins=self._pins,
            internal_nets=self._internal,
            avg_pins=self.avg_pins,
        )


@dataclass(frozen=True)
class PrefixCurves:
    """Per-prefix statistics of one linear ordering as flat integer arrays.

    Entry ``k`` describes prefix ``C_{k+1}`` (the first ``k + 1`` cells).
    The arrays carry exactly the information of one
    :class:`GroupStats` per prefix — :meth:`stats_at` materializes a single
    prefix, :meth:`stats_list` the whole (scalar-compatible) list.

    Attributes:
        sizes: ``1, 2, ..., len(ordering)``.
        cuts: ``T(C_k)`` per prefix.
        pins: total pins per prefix.
        internal: nets fully inside each prefix.
    """

    sizes: np.ndarray
    cuts: np.ndarray
    pins: np.ndarray
    internal: np.ndarray

    def __len__(self) -> int:
        return len(self.sizes)

    @property
    def avg_pins(self) -> np.ndarray:
        """``A_C`` per prefix (exact float64 division of integer arrays)."""
        return self.pins / self.sizes

    def stats_at(self, index: int) -> GroupStats:
        """:class:`GroupStats` of prefix ``index`` (0-based)."""
        size = int(self.sizes[index])
        pins = int(self.pins[index])
        return GroupStats(
            size=size,
            cut=int(self.cuts[index]),
            pins=pins,
            internal_nets=int(self.internal[index]),
            avg_pins=pins / size,
        )

    def stats_list(self) -> List[GroupStats]:
        """All prefixes as a list of :class:`GroupStats`."""
        return [self.stats_at(i) for i in range(len(self))]


def scan_ordering_curves(netlist: Netlist, ordering: Sequence[int]) -> PrefixCurves:
    """Vectorized equivalent of a full :class:`PrefixScanner` sweep.

    The finder's curves normally come out of the compiled grow kernel;
    this scan gives them to the kernel-less fallback and to any caller
    holding only an ordering, and it is the kernel's test oracle.
    Computes the cut/pins/internal statistics of *every* prefix of
    ``ordering`` from the CSR view: each incident net contributes a ``+1``
    cut event at the step that first touches it and a ``-1`` at the step
    that absorbs its last pin; two ``bincount``/``cumsum`` passes turn the
    events into whole curves.  All outputs are integers, so the curves
    match the scalar scanner bit for bit.  Cells in ``ordering`` must be
    distinct (Phase I orderings always are); duplicates raise
    :class:`NetlistError`, matching the scalar scanner's contract.
    """
    from repro.netlist.arrays import gather_segments

    arrays = netlist.arrays
    order_cells = np.asarray(ordering, dtype=np.int64)
    steps = int(order_cells.size)
    if np.unique(order_cells).size != steps:
        raise NetlistError("ordering contains a cell twice")
    if steps == 0:
        return PrefixCurves(
            sizes=np.zeros(0, dtype=np.int64),
            cuts=np.zeros(0, dtype=np.int64),
            pins=np.zeros(0, dtype=np.int64),
            internal=np.zeros(0, dtype=np.int64),
        )

    starts = arrays.cell_ptr[order_cells]
    lengths = arrays.cell_ptr[order_cells + 1] - starts
    incident = gather_segments(arrays.cell_nets, starts, lengths)
    if incident.size == 0:  # ordering of isolated cells: no nets, no cuts
        zeros = np.zeros(steps, dtype=np.int64)
        return PrefixCurves(
            sizes=np.arange(1, steps + 1, dtype=np.int64),
            cuts=zeros,
            pins=np.cumsum(arrays.pin_counts[order_cells]),
            internal=zeros.copy(),
        )
    step_of_pin = np.repeat(np.arange(steps, dtype=np.int64), lengths)

    # Stable sort by net keeps each net's steps ascending, so the first and
    # last element of every net segment are its first-touch and last-touch
    # steps.
    order = np.argsort(incident, kind="stable")
    nets_sorted = incident[order]
    steps_sorted = step_of_pin[order]
    seg_start = np.flatnonzero(
        np.concatenate(([True], nets_sorted[1:] != nets_sorted[:-1]))
    )
    seg_end = np.concatenate((seg_start[1:], [nets_sorted.size])) - 1
    first_touch = steps_sorted[seg_start]
    last_touch = steps_sorted[seg_end]
    inside = seg_end - seg_start + 1
    degrees = arrays.net_degrees[nets_sorted[seg_start]]
    multi = degrees > 1
    absorbed = multi & (inside == degrees)

    cut_events = np.bincount(first_touch[multi], minlength=steps).astype(np.int64)
    cut_events -= np.bincount(last_touch[absorbed], minlength=steps)
    internal_events = np.bincount(first_touch[~multi], minlength=steps).astype(
        np.int64
    )
    internal_events += np.bincount(last_touch[absorbed], minlength=steps)

    return PrefixCurves(
        sizes=np.arange(1, steps + 1, dtype=np.int64),
        cuts=np.cumsum(cut_events),
        pins=np.cumsum(arrays.pin_counts[order_cells]),
        internal=np.cumsum(internal_events),
    )
