"""End-to-end placement flow: quadratic solve -> spreading -> legalization."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import PlacementError
from repro.netlist.backend import resolve_backend
from repro.netlist.hypergraph import Netlist
from repro.placement.legalize import legalize_rows
from repro.placement.pads import assign_pad_positions
from repro.placement.quadratic import solve_quadratic_placement
from repro.placement.region import Die
from repro.placement.spreading import diffuse_density, make_fillers, spread_cells


@dataclass(frozen=True)
class Placement:
    """A placed design.

    Attributes:
        netlist: the placed netlist.
        die: the region it was placed into.
        x, y: per-cell coordinates.
    """

    netlist: Netlist
    die: Die
    x: np.ndarray
    y: np.ndarray

    def position(self, cell: int) -> Tuple[float, float]:
        """Coordinates of ``cell``."""
        return float(self.x[cell]), float(self.y[cell])

    def hpwl(self) -> float:
        """Total half-perimeter wirelength of the placement.

        Runs the batched numpy path, or the scalar per-net reference loop
        under ``REPRO_SCALAR_BACKEND=1``; both return bit-identical totals.
        """
        if resolve_backend() == "python":
            total = 0.0
            for net in range(self.netlist.num_nets):
                cells = list(self.netlist.cells_of_net(net))
                if len(cells) < 2:
                    continue
                xs = self.x[cells]
                ys = self.y[cells]
                total += float(xs.max() - xs.min() + ys.max() - ys.min())
            return total
        return self._hpwl_numpy()

    def _hpwl_numpy(self) -> float:
        arrays = self.netlist.arrays
        if arrays.net_cells.size == 0:
            return 0.0
        x0, x1, y0, y1 = arrays.net_bboxes(self.x, self.y)
        # Same left-to-right grouping as the scalar loop's
        # ``max - min + max - min`` so the per-net spans are bit-identical.
        spans = x1 - x0 + y1 - y0
        spans = spans[arrays.net_degrees >= 2]
        if spans.size == 0:
            return 0.0
        # cumsum accumulates left to right like the scalar loop, keeping the
        # two backends bit-identical (np.sum's pairwise order would not).
        return float(spans.cumsum()[-1])


def place(
    netlist: Netlist,
    die: Optional[Die] = None,
    pad_positions: Optional[Dict[int, Tuple[float, float]]] = None,
    utilization: float = 0.6,
    spreading_iterations: int = 1,
    regroup_weight: float = 0.25,
    contraction_weight: float = 0.0,
    max_utilization: float = 1.0,
    legalize: bool = False,
) -> Placement:
    """Place ``netlist``; returns a :class:`Placement`.

    The flow alternates wirelength optimization with density control, the
    standard analytic-placement loop:

    1. unconstrained quadratic solve (cells collapse toward connectivity
       centroids);
    2. area-weighted spreading together with whitespace *filler cells*
       (fillers keep local real-cell density at the target utilization
       instead of letting spreading squeeze everything to uniform fill);
    3. ``spreading_iterations`` rounds of anchored re-solve + re-spread,
       where each movable cell is tied to its last spread position with a
       spring *relative* to its connectivity (weight ``regroup_weight``) —
       connectivity re-groups logic locally without global collapse;
    4. optionally (``contraction_weight > 0``) a final anchored solve with
       an *absolute* spring per cell: ordinary cells barely move while
       highly interconnected cells overcome the spring and contract toward
       their group — an explicit model of the paper's "placer naturally
       wants to pull [GTL] cells tightly together".  Off by default: the
       congestion hotspots of Figs 1/6 already arise from the higher
       pin-per-area density of tangled logic at uniform placement density,
       and the contraction also densifies ordinary logic clusters;
    5. capped Poisson diffusion: pockets whose utilization exceeds
       ``max_utilization`` push cells outward until physical;
    6. optional row legalization (congestion analysis conventionally runs
       on the global placement, so the default is off).

    Args:
        netlist: design to place (needs at least one fixed cell unless
            ``pad_positions`` covers none — the quadratic anchor keeps the
            system solvable either way).
        die: target region; sized from total cell area when omitted.
        pad_positions: explicit pad coordinates; perimeter-assigned when
            omitted and fixed cells exist.
        utilization: cell-area utilization used to size a default die.
        spreading_iterations: anchored re-solve/re-spread rounds.
        regroup_weight: relative anchor weight during re-solve rounds.
        contraction_weight: absolute anchor spring of the optional final
            solve; smaller values let tangled groups contract harder, 0
            disables the step.
        max_utilization: local density cap enforced after contraction.
        legalize: snap to rows at the end.
    """
    if die is None:
        total_area = sum(netlist.cell_area(c) for c in range(netlist.num_cells))
        die = Die.for_area(total_area, utilization=utilization)
    if pad_positions is None:
        pad_positions = (
            assign_pad_positions(netlist, die) if netlist.fixed_cells() else {}
        )
    if spreading_iterations < 0:
        raise PlacementError("spreading_iterations must be >= 0")
    if regroup_weight <= 0:
        raise PlacementError("regroup_weight must be positive")
    if contraction_weight < 0:
        raise PlacementError("contraction_weight must be >= 0")

    num_cells = netlist.num_cells
    movable = np.flatnonzero(~netlist.arrays.fixed_mask)
    areas = np.array(netlist.arrays.areas)

    # Whitespace fillers participate in spreading/diffusion only.
    movable_area = float(areas[movable].sum()) if movable.size else 0.0
    mean_area = movable_area / max(1, movable.size)
    fx, fy, fareas = make_fillers(areas.sum(), die, mean_area)
    num_fillers = len(fx)

    def combine(cx: np.ndarray, cy: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return np.concatenate([cx, fx]), np.concatenate([cy, fy])

    all_areas = np.concatenate([areas, fareas])
    all_movable = np.concatenate(
        [movable, num_cells + np.arange(num_fillers, dtype=np.int64)]
    )

    qx, qy = solve_quadratic_placement(netlist, die, pad_positions)
    gx, gy = combine(qx, qy)
    gx, gy = spread_cells(gx, gy, all_areas, die, movable=all_movable)
    for _ in range(spreading_iterations):
        qx, qy = solve_quadratic_placement(
            netlist,
            die,
            pad_positions,
            anchors=(gx[:num_cells], gy[:num_cells]),
            anchor_weight=regroup_weight,
        )
        gx[:num_cells], gy[:num_cells] = qx, qy
        gx, gy = spread_cells(gx, gy, all_areas, die, movable=all_movable)
    if contraction_weight > 0:
        qx, qy = solve_quadratic_placement(
            netlist,
            die,
            pad_positions,
            anchors=(gx[:num_cells], gy[:num_cells]),
            anchor_weight=contraction_weight,
            anchor_mode="absolute",
        )
        gx[:num_cells], gy[:num_cells] = qx, qy
        gx, gy = diffuse_density(
            gx, gy, all_areas, die, movable=all_movable, max_utilization=max_utilization
        )
    if legalize:
        # Fillers participate so row capacities account for whitespace.
        gx, gy = legalize_rows(gx, gy, all_areas, die, movable=all_movable)
    x, y = gx[:num_cells], gy[:num_cells]
    return Placement(netlist=netlist, die=die, x=x, y=y)
