"""Phase I — linear ordering generation (Section 3.2.1 / Algorithm I.1-I.11).

Starting from a seed cell, the group grows one cell at a time.  Candidates
are the outside cells with a direct net connection to the group; the one
with the largest *connection weight*

    w(v) = sum over nets e with v in e and e touching the group of
           1 / (|e| - |e intersect S| + 1)

is added next (a net counts more when most of its pins are already inside).
Ties are broken by favoring the candidate whose addition increases the net
cut least ("min cut" secondary criterion).  The paper argues weight-first
selection pulls true-GTL cells into the group before outside cells.

Implementation notes
--------------------
* A :class:`~repro.utils.lazyheap.LazyMaxHeap` holds the frontier keyed by
  ``(weight, -cut_delta)``; each addition updates only the neighbors reached
  through the added cell's nets, giving the paper's ``O(Z log |V|)`` bound.
* Following the paper's constant-factor optimization, incremental weight
  updates skip nets that still have at least ``lambda_skip`` (default 20)
  pins outside the group — their per-pin weight contribution is below
  1/21 and barely changes.  The *first* touch of a net is never skipped so
  every reachable cell enters the frontier.
* Two growers implement this loop and grow bit-identical orderings with
  identical ``heap_pushes`` telemetry (see :mod:`repro.finder.kernel`):
  the compiled C kernel (the numpy backend's fast path) and the scalar
  reference :class:`LinearOrderingGrower`, which runs on the scalar
  backend (``REPRO_SCALAR_BACKEND=1``, see :mod:`repro.netlist.backend`)
  and wherever the kernel cannot be compiled or loaded.
  :func:`grow_with_curves` picks one per call; Phase I and the Phase III
  re-growths both go through it.  On the numpy backend it also returns the
  ordering's prefix curves, which the C kernel records while it grows, so
  Phase II never re-scans an ordering the kernel grew.
* An ordering depends only on the design, the seed cell, ``lambda_skip``,
  ``exclude_fixed`` and its cap, and a cap only stops growth: an ordering
  capped at ``L`` and its curves are the first ``L`` entries of any
  longer-capped one, and an ordering whose frontier emptied before its cap
  (a *complete* one) is what every longer cap grows.  So
  :func:`grow_with_curves` keeps one process-wide memo of grown orderings
  (:class:`OrderingMemo`): per (netlist, seed cell, ``lambda_skip``,
  ``exclude_fixed``, backend) the longest ordering grown so far, with its
  cut and internal-net curves on the numpy backend, as one int32 table.
  A request is answered from the memo when the entry is at least as long
  as its cap or complete; anything else grows, and the longer ordering
  replaces the entry.  Answers are bit-identical to growing: ``pins`` is
  rebuilt with one ``cumsum`` and ``sizes`` with one ``arange``.  Entries
  hang off a per-netlist token (:meth:`Netlist.derived`), so an edited,
  reloaded or unpickled design starts cold and the memo never enters a
  fingerprint; the least recently used entries (first of all those of
  netlists that are gone, which are never hit again) are evicted to keep
  the whole memo under :data:`MEMO_BUDGET_BYTES`.  A ``lambda_skip`` x ``min_gtl_size``
  sweep therefore grows each ordering once per design.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Hashable, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from repro.finder.kernel import check_seed, grow_ordering, multi_pin_degrees
from repro.netlist.backend import resolve_backend
from repro.netlist.hypergraph import Netlist
from repro.netlist.ops import PrefixCurves
from repro.obs import trace
from repro.utils.lazyheap import LazyMaxHeap

#: :meth:`Netlist.derived` key of the scalar grower's per-netlist lists.
_SCALAR_TABLES_KEY = "finder_scalar_grower_tables"

#: :meth:`Netlist.derived` key of the netlist's ordering-memo token.
_MEMO_TOKEN_KEY = "finder_ordering_memo_token"

#: Byte budget of the process-wide ordering memo: 8 MiB holds about 50
#: orderings of a 53K-cell design's default cap (13,250 cells x 3 int32).
MEMO_BUDGET_BYTES = 8 << 20


class LinearOrderingGrower:
    """Grows one linear ordering; exposes incremental state for testing."""

    def __init__(
        self,
        netlist: Netlist,
        seed: int,
        lambda_skip: int = 20,
        exclude_fixed: bool = True,
    ) -> None:
        check_seed(netlist, seed, exclude_fixed)
        self._netlist = netlist
        self._net_degree, self._fixed, self._degree2 = _scalar_tables(netlist)
        self._lambda_skip = lambda_skip
        self._exclude_fixed = exclude_fixed
        self._in_group: Set[int] = set()
        self._inside_count: Dict[int, int] = {}
        # Frontier bookkeeping: connection weight and cut-delta components.
        self._weight: Dict[int, float] = {}
        self._touched: Dict[int, int] = {}  # nets (>=2 pins) of v touching S
        self._absorbable: Dict[int, int] = {}  # nets of v where v is last outside pin
        self._heap = LazyMaxHeap()
        self._ordering: List[int] = []
        self._absorb(seed)

    # ------------------------------------------------------------------
    @property
    def ordering(self) -> List[int]:
        """Cells in the order they were absorbed (seed first)."""
        return list(self._ordering)

    @property
    def frontier_size(self) -> int:
        """Number of candidate cells currently adjacent to the group."""
        return len(self._heap)

    def connection_weight(self, cell: int) -> float:
        """Current connection weight of frontier cell ``cell`` (0 if absent)."""
        return self._weight.get(cell, 0.0)

    def cut_delta(self, cell: int) -> int:
        """Net-cut change if frontier cell ``cell`` were absorbed now."""
        newly_cut = self._degree2[cell] - self._touched.get(cell, 0)
        return newly_cut - self._absorbable.get(cell, 0)

    # ------------------------------------------------------------------
    def step(self) -> Optional[int]:
        """Absorb the best frontier cell; return it, or ``None`` if stuck."""
        try:
            cell, _, _ = self._heap.pop()
        except KeyError:
            return None
        self._absorb(cell)
        return cell

    def grow(self, max_length: int) -> List[int]:
        """Grow until ``max_length`` cells or the frontier empties."""
        while len(self._ordering) < max_length:
            if self.step() is None:
                break
        return self.ordering

    def telemetry(self) -> Dict[str, int]:
        """Work counters of this grower (same keys as the compiled kernel)."""
        return {"heap_pushes": self._heap.pushes}

    # ------------------------------------------------------------------
    def _absorb(self, cell: int) -> None:
        netlist = self._netlist
        net_degree, fixed = self._net_degree, self._fixed
        self._in_group.add(cell)
        self._ordering.append(cell)
        self._weight.pop(cell, None)
        self._touched.pop(cell, None)
        self._absorbable.pop(cell, None)
        self._heap.discard(cell)

        for net in netlist.nets_of_cell(cell):
            degree = net_degree[net]
            old_inside = self._inside_count.get(net, 0)
            new_inside = old_inside + 1
            self._inside_count[net] = new_inside
            outside = degree - new_inside
            if outside == 0:
                continue  # net fully absorbed; no outside pins to update

            first_touch = old_inside == 0
            if not first_touch and self._lambda_skip and outside >= self._lambda_skip:
                # Paper's optimization: weight change 1/(lambda+1) - 1/(lambda+2)
                # is negligible for large lambda; skip the O(|e|) update.
                continue

            old_contribution = 0.0 if first_touch else 1.0 / (degree - old_inside + 1)
            new_contribution = 1.0 / (outside + 1)
            delta = new_contribution - old_contribution
            becomes_absorbable = outside == 1

            for other in netlist.cells_of_net(net):
                if other in self._in_group:
                    continue
                if self._exclude_fixed and fixed[other]:
                    continue
                self._weight[other] = self._weight.get(other, 0.0) + delta
                if first_touch:
                    self._touched[other] = self._touched.get(other, 0) + 1
                if becomes_absorbable:
                    self._absorbable[other] = self._absorbable.get(other, 0) + 1
                self._push(other)

    def _push(self, cell: int) -> None:
        # Secondary priority favors min cut: larger -cut_delta wins ties.
        self._heap.push(cell, self._weight[cell], float(-self.cut_delta(cell)))


def _scalar_tables(netlist: Netlist) -> Tuple[List[int], List[bool], List[int]]:
    """Net degrees, fixed flags and per-cell multi-pin net counts as lists.

    Built once per netlist from its CSR arrays (:meth:`Netlist.derived`):
    the grower reads plain list items, not numpy scalars, and a heap push
    reads ``degree2`` instead of recounting.
    """
    arrays = netlist.arrays
    return netlist.derived(
        _SCALAR_TABLES_KEY,
        lambda: (
            arrays.net_degrees.tolist(),
            arrays.fixed_mask.tolist(),
            multi_pin_degrees(arrays).tolist(),
        ),
    )


class _Entry(NamedTuple):
    """One memo entry: rows (ordering[, cuts, internal]) x cells, and
    whether growth stopped before the cap because the frontier emptied."""

    table: np.ndarray
    complete: bool


class OrderingMemo:
    """Grown orderings under a least-recently-used byte budget.

    Thread-safe: lookups and stores take one lock, growing happens outside
    it.  When two threads miss on one key at once both grow, and the longer
    ordering is kept (equal ones are identical).
    """

    def __init__(self, budget_bytes: int) -> None:
        self.budget_bytes = budget_bytes
        self.nbytes = 0
        self._entries: "OrderedDict[Hashable, _Entry]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable, cap: int) -> Optional[np.ndarray]:
        """The first ``cap`` columns of the entry under ``key`` when it
        answers a request capped at ``cap``, else ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or (entry.table.shape[1] < cap and not entry.complete):
                return None
            self._entries.move_to_end(key)
            return entry.table[:, :cap]

    def put(self, key: Hashable, table: np.ndarray, complete: bool) -> None:
        """Store ``table`` under ``key`` unless the entry there already
        answers everything it does, then evict down to the budget."""
        if table.nbytes > self.budget_bytes:
            return
        with self._lock:
            old = self._entries.get(key)
            if old is not None:
                length, old_length = table.shape[1], old.table.shape[1]
                if old.complete or old_length > length or (
                    old_length == length and not complete
                ):
                    return
                self.nbytes -= old.table.nbytes
            self._entries[key] = _Entry(table, complete)
            self._entries.move_to_end(key)
            self.nbytes += table.nbytes
            while self.nbytes > self.budget_bytes:
                _, evicted = self._entries.popitem(last=False)
                self.nbytes -= evicted.table.nbytes


#: The process-wide memo behind :func:`grow_with_curves`.
ORDERING_MEMO = OrderingMemo(MEMO_BUDGET_BYTES)


def _memo_table(
    netlist: Netlist, ordering: Sequence[int], curves: Optional[PrefixCurves]
) -> np.ndarray:
    """``ordering`` (and the curves that are not rebuilt on a hit) as one
    compact table: int32 unless the design is too large for it."""
    int32_max = np.iinfo(np.int32).max
    small = max(netlist.num_cells, netlist.num_nets) <= int32_max
    rows = [ordering] if curves is None else [ordering, curves.cuts, curves.internal]
    table = np.empty((len(rows), len(ordering)), dtype=np.int32 if small else np.int64)
    for row, values in zip(table, rows):
        row[:] = values
    return table


def _from_table(netlist: Netlist, table: np.ndarray, with_curves: bool):
    """The ``(ordering, curves)`` a grower returns, rebuilt from a memo table."""
    if not with_curves:
        return table[0].tolist(), None
    ordering = table[0].astype(np.int64)
    length = len(ordering)
    curves = PrefixCurves(
        sizes=np.arange(1, length + 1, dtype=np.int64),
        cuts=table[1].astype(np.int64),
        pins=np.cumsum(netlist.arrays.pin_counts[ordering], dtype=np.int64),
        internal=table[2].astype(np.int64),
    )
    return ordering, curves


def grow_with_curves(
    netlist: Netlist,
    seed: int,
    max_length: int,
    lambda_skip: int = 20,
    exclude_fixed: bool = True,
) -> Tuple[Sequence[int], Optional[PrefixCurves]]:
    """One Phase I ordering of at most ``max_length`` cells, and its curves.

    On the numpy backend: an int64 array and its
    :class:`~repro.netlist.ops.PrefixCurves` from
    :func:`~repro.finder.kernel.grow_ordering` (the compiled kernel when
    it loads).  On the scalar backend: a list from
    :class:`LinearOrderingGrower` and ``None`` (Phase II scans it with
    :class:`~repro.netlist.ops.PrefixScanner`).  Either is answered from
    :data:`ORDERING_MEMO` when it holds a long enough or complete ordering
    for the same netlist object and parameters; only grown orderings count
    as ``finder.orderings`` work, a memo answer counts one
    ``finder.ordering_reuses``.
    """
    with_curves = resolve_backend() == "numpy"
    cap = max(1, max_length)  # the seed is absorbed even with a cap of 0
    token = netlist.derived(_MEMO_TOKEN_KEY, object)
    key = (token, seed, lambda_skip, bool(exclude_fixed), with_curves)
    table = ORDERING_MEMO.get(key, cap)
    if table is not None:
        trace.counter("finder.ordering_reuses").add(1)
        return _from_table(netlist, table, with_curves)
    curves = None
    if with_curves:
        ordering, telemetry, curves = grow_ordering(
            netlist,
            seed,
            max_length,
            lambda_skip=lambda_skip,
            exclude_fixed=exclude_fixed,
        )
    else:
        grower = LinearOrderingGrower(
            netlist, seed, lambda_skip=lambda_skip, exclude_fixed=exclude_fixed
        )
        ordering = grower.grow(max_length)
        telemetry = grower.telemetry()
    ORDERING_MEMO.put(
        key, _memo_table(netlist, ordering, curves), complete=len(ordering) < cap
    )
    if trace.enabled():
        trace.counter("finder.orderings").add(1)
        trace.counter("finder.absorb_steps").add(len(ordering))
        for name, value in telemetry.items():
            trace.counter(f"finder.{name}").add(value)
    return ordering, curves


def grow_linear_ordering(
    netlist: Netlist,
    seed: int,
    max_length: int,
    lambda_skip: int = 20,
    exclude_fixed: bool = True,
) -> List[int]:
    """One Phase I ordering of at most ``max_length`` cells, as a list.

    Runs the compiled kernel on the numpy backend when it loads, else
    :class:`LinearOrderingGrower`.
    """
    ordering, _ = grow_with_curves(
        netlist, seed, max_length, lambda_skip=lambda_skip, exclude_fixed=exclude_fixed
    )
    return ordering if isinstance(ordering, list) else ordering.tolist()
