"""Fiduccia-Mattheyses (FM) min-cut bisection.

The classic linear-time-per-pass move-based heuristic: cells move between
two sides to reduce the number of cut nets, under an area balance
constraint.  Gains are kept in bucket lists indexed by gain value; each
pass tentatively moves every cell once (locking it) and the best prefix of
the move sequence is committed.  Passes repeat until no improvement.

This implementation supports hypergraphs directly (gain updates follow the
standard critical-net conditions) and weighted cell areas.

:class:`FMPartitioner` is the pure-Python *scalar reference*; the flat-array
counterpart lives in :mod:`repro.partition.kernel` and is selected by
default through :func:`repro.netlist.backend.resolve_backend` (set
``REPRO_SCALAR_BACKEND=1`` to force this implementation everywhere).  The
two are bit-identical in every observable: move sequences, sides, cut and
pass counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import ReproError
from repro.netlist.backend import resolve_backend
from repro.netlist.hypergraph import Netlist
from repro.obs import trace
from repro.utils.rng import RngLike, ensure_rng


@dataclass(frozen=True)
class PartitionResult:
    """Outcome of one bisection.

    Attributes:
        sides: per-cell side (0 or 1) for the partitioned cells.
        cut: number of nets with pins on both sides.
        passes: FM passes executed.
    """

    sides: Dict[int, int]
    cut: int
    passes: int

    def side_cells(self, side: int) -> List[int]:
        """Cells assigned to ``side``."""
        return sorted(c for c, s in self.sides.items() if s == side)


def random_balanced_start(
    cells: Sequence[int],
    areas: Mapping[int, float],
    total_area: float,
    max_area: float,
    tolerance: float,
    rng,
) -> Dict[int, int]:
    """Shuffled greedy fill of side 0 up to half the total area.

    Shared by both FM backends so the same seed produces the same start
    everywhere.  The cell whose addition crosses the half-area mark goes to
    whichever side leaves side 0 closer to half — assigning it to side 0
    unconditionally (the old behavior) overshoots by up to its full area,
    which for a large cell violates the balance tolerance before FM even
    starts.  With the tie resolved greedily the final imbalance is at most
    ``max_area / 2``, which always satisfies the balance slack
    ``max(tolerance * total_area, max_area)``; that invariant is asserted
    here so a regression can never hand FM an infeasible start.
    """
    order = list(cells)
    rng.shuffle(order)
    sides: Dict[int, int] = {}
    half = total_area / 2
    area0 = 0.0
    for cell in order:
        if area0 < half:
            area = areas[cell]
            if area0 + area - half > half - area0:
                # Crossing cell overshoots more than it currently fills:
                # side 0 stays lighter without it.
                sides[cell] = 1
            else:
                sides[cell] = 0
                area0 += area
        else:
            sides[cell] = 1
    slack = max(tolerance * total_area, max_area)
    if abs(area0 - half) > slack:
        raise ReproError(
            f"random balanced start violates the balance slack: "
            f"|{area0} - {half}| > {slack}"
        )
    return sides


def _emit_fm_telemetry(passes: int, moves: int) -> None:
    """Fold one FM run's work counters into the obs layer (both backends
    call this from ``run()``, so recursive bisection is covered too)."""
    if trace.enabled():
        trace.counter("fm.runs").add(1)
        trace.counter("fm.passes").add(passes)
        trace.counter("fm.moves").add(moves)


class FMPartitioner:
    """FM bisection over a subset of a netlist's cells.

    Nets are restricted to the given cell subset; pins outside the subset
    are ignored (free boundary), which is what recursive bisection needs.
    """

    def __init__(
        self,
        netlist: Netlist,
        cells: Optional[Sequence[int]] = None,
        balance_tolerance: float = 0.1,
        rng: RngLike = 0,
    ) -> None:
        if not 0 <= balance_tolerance < 1:
            raise ReproError("balance_tolerance must be in [0, 1)")
        self._netlist = netlist
        self._cells = sorted(set(cells if cells is not None else range(netlist.num_cells)))
        if len(self._cells) < 2:
            raise ReproError("FM needs at least two cells")
        self._cell_set = set(self._cells)
        self._tolerance = balance_tolerance
        self._rng = ensure_rng(rng)

        # Restrict nets to the subset once.
        self._nets: List[List[int]] = []
        seen: Set[int] = set()
        for cell in self._cells:
            for net in netlist.nets_of_cell(cell):
                if net in seen:
                    continue
                seen.add(net)
                members = [c for c in netlist.cells_of_net(net) if c in self._cell_set]
                if len(members) >= 2:
                    self._nets.append(members)
        self._cell_nets: Dict[int, List[int]] = {c: [] for c in self._cells}
        for index, members in enumerate(self._nets):
            for cell in members:
                self._cell_nets[cell].append(index)

        self._areas = {c: netlist.cell_area(c) for c in self._cells}
        self._total_area = sum(self._areas.values())
        # Hoisted out of _balance_ok: recomputing the max per candidate
        # probe made every pass quadratic in the subset size.
        self._max_area = max(self._areas.values())
        #: Lifetime tally of tentative moves across passes — telemetry.
        self.moves = 0

    # ------------------------------------------------------------------
    def run(
        self,
        initial: Optional[Dict[int, int]] = None,
        max_passes: int = 12,
    ) -> PartitionResult:
        """Run FM passes until convergence; returns the best partition."""
        sides = dict(initial) if initial else self._random_balanced_start()
        for cell in self._cells:
            if cell not in sides:
                raise ReproError(f"initial partition misses cell {cell}")

        passes = 0
        best_cut = self._cut(sides)
        # A pass always commits at least one move, so a pass where every
        # move worsens the cut returns sides strictly worse than its input;
        # snapshot the best sides so the reported (sides, cut) pair always
        # matches.
        best_sides = dict(sides)
        moves_before = self.moves
        improved = True
        while improved and passes < max_passes:
            passes += 1
            sides, pass_cut = self._one_pass(sides)
            improved = pass_cut < best_cut
            if improved:
                best_cut = pass_cut
                best_sides = dict(sides)
        _emit_fm_telemetry(passes, self.moves - moves_before)
        return PartitionResult(sides=best_sides, cut=best_cut, passes=passes)

    # ------------------------------------------------------------------
    def _random_balanced_start(self) -> Dict[int, int]:
        return random_balanced_start(
            self._cells,
            self._areas,
            self._total_area,
            self._max_area,
            self._tolerance,
            self._rng,
        )

    def _cut(self, sides: Dict[int, int]) -> int:
        cut = 0
        for members in self._nets:
            first = sides[members[0]]
            if any(sides[c] != first for c in members[1:]):
                cut += 1
        return cut

    def _balance_ok(self, area0: float, moving_area: float, from_side: int) -> bool:
        half = self._total_area / 2
        slack = max(self._tolerance * self._total_area, self._max_area)
        new_area0 = area0 - moving_area if from_side == 0 else area0 + moving_area
        return abs(new_area0 - half) <= slack

    def _one_pass(self, sides: Dict[int, int]) -> Tuple[Dict[int, int], int]:
        sides = dict(sides)
        # Per-net side counts.
        counts = [[0, 0] for _ in self._nets]
        for index, members in enumerate(self._nets):
            for cell in members:
                counts[index][sides[cell]] += 1

        # Initial gains.
        gains: Dict[int, int] = {}
        for cell in self._cells:
            gain = 0
            side = sides[cell]
            for net in self._cell_nets[cell]:
                if counts[net][side] == 1:
                    gain += 1  # moving removes the net from the cut
                if counts[net][1 - side] == 0:
                    gain -= 1  # moving puts the net into the cut
            gains[cell] = gain

        # Gain buckets (dict of gain -> set of free cells).
        buckets: Dict[int, Set[int]] = {}
        for cell, gain in gains.items():
            buckets.setdefault(gain, set()).add(cell)

        def bucket_remove(cell: int) -> None:
            bucket = buckets.get(gains[cell])
            if bucket is not None:
                bucket.discard(cell)
                if not bucket:
                    buckets.pop(gains[cell], None)

        def bucket_update(cell: int, delta: int) -> None:
            bucket_remove(cell)
            gains[cell] += delta
            buckets.setdefault(gains[cell], set()).add(cell)

        area0 = sum(self._areas[c] for c in self._cells if sides[c] == 0)
        locked: Set[int] = set()
        sequence: List[int] = []
        cut_trace: List[int] = []
        current_cut = self._cut(sides)

        for _ in range(len(self._cells)):
            chosen = None
            for gain in sorted(buckets, reverse=True):
                # Deterministic tie-break: smallest cell id that fits balance.
                for cell in sorted(buckets[gain]):
                    if self._balance_ok(area0, self._areas[cell], sides[cell]):
                        chosen = cell
                        break
                if chosen is not None:
                    break
            if chosen is None:
                break

            from_side = sides[chosen]
            to_side = 1 - from_side
            bucket_remove(chosen)
            locked.add(chosen)
            current_cut -= gains[chosen]
            sequence.append(chosen)
            cut_trace.append(current_cut)

            # Standard FM gain updates on critical nets.
            for net in self._cell_nets[chosen]:
                count_to = counts[net][to_side]
                members = self._nets[net]
                if count_to == 0:
                    for other in members:
                        if other != chosen and other not in locked:
                            bucket_update(other, +1)
                elif count_to == 1:
                    for other in members:
                        if other != chosen and other not in locked and sides[other] == to_side:
                            bucket_update(other, -1)
                counts[net][from_side] -= 1
                counts[net][to_side] += 1
                if counts[net][from_side] == 0:
                    for other in members:
                        if other != chosen and other not in locked:
                            bucket_update(other, -1)
                elif counts[net][from_side] == 1:
                    for other in members:
                        if other != chosen and other not in locked and sides[other] == from_side:
                            bucket_update(other, +1)

            sides[chosen] = to_side
            area0 += self._areas[chosen] if to_side == 0 else -self._areas[chosen]

        self.moves += len(sequence)
        if not cut_trace:
            return sides, self._cut(sides)

        best_index = min(range(len(cut_trace)), key=cut_trace.__getitem__)
        # Roll back moves after the best prefix.
        for cell in sequence[best_index + 1 :]:
            side = sides[cell]
            sides[cell] = 1 - side
        return sides, cut_trace[best_index]


def make_partitioner(
    netlist: Netlist,
    cells: Optional[Sequence[int]] = None,
    balance_tolerance: float = 0.1,
    rng: RngLike = 0,
):
    """An FM partitioner on the active compute backend.

    ``"numpy"`` (the default unless ``REPRO_SCALAR_BACKEND=1``) builds the
    flat-array :class:`~repro.partition.kernel.ArrayFMPartitioner`;
    ``"python"`` builds the scalar reference :class:`FMPartitioner`.  Both
    produce bit-identical results (same move sequences, sides, cut and pass
    counts) — see ``tests/test_partition_kernel.py``.
    """
    if resolve_backend() == "numpy":
        from repro.partition.kernel import ArrayFMPartitioner

        return ArrayFMPartitioner(
            netlist, cells=cells, balance_tolerance=balance_tolerance, rng=rng
        )
    return FMPartitioner(
        netlist, cells=cells, balance_tolerance=balance_tolerance, rng=rng
    )


def fm_bisect(
    netlist: Netlist,
    cells: Optional[Sequence[int]] = None,
    balance_tolerance: float = 0.1,
    rng: RngLike = 0,
    max_passes: int = 12,
) -> PartitionResult:
    """Convenience wrapper: one FM bisection of ``cells`` (default: all)."""
    partitioner = make_partitioner(
        netlist, cells=cells, balance_tolerance=balance_tolerance, rng=rng
    )
    with trace.span(
        "partition.fm_bisect",
        cells=len(cells) if cells is not None else netlist.num_cells,
    ):
        return partitioner.run(max_passes=max_passes)
