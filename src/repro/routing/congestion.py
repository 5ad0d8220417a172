"""RUDY congestion estimation.

RUDY (Rectangular Uniform wire DensitY) spreads each net's expected wiring
demand — its half-perimeter wirelength — uniformly over its bounding box.
Summing over nets gives a per-tile demand map whose ratio to tile capacity
is the congestion (occupancy) the paper's Figure 1/7 heat maps show.  RUDY
is the standard placement-stage congestion model; it reproduces the paper's
phenomenon (tightly packed tangled logic => demand far above capacity) with
no global router in the loop.

The map is built batched on the netlist's flat pin arrays: per-net bounding
boxes come from the shared ``reduceat`` kernel
(:meth:`repro.netlist.arrays.NetlistArrays.net_bboxes`), degenerate boxes
are widened with ``np.where``, and tile demand accumulates as one matrix
product of per-axis tile-coverage factors instead of a nested Python tile
loop.  The original scalar per-net loop stays as the reference
implementation, selected by ``REPRO_SCALAR_BACKEND=1`` (see
:mod:`repro.netlist.backend`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import PlacementError
from repro.netlist.backend import resolve_backend
from repro.placement.placer import Placement


@dataclass
class CongestionMap:
    """Per-tile wiring demand over a placed design.

    Attributes:
        demand: ``(nx, ny)`` array of wiring demand per tile.
        capacity: scalar routing capacity of one tile.
        tile_width, tile_height: tile dimensions.
        net_boxes: per-net bounding boxes in tile coordinates
            ``(ix0, iy0, ix1, iy1)`` inclusive, or None for ignored nets.
    """

    demand: np.ndarray
    capacity: float
    tile_width: float
    tile_height: float
    net_boxes: List[Optional[Tuple[int, int, int, int]]]
    # Demand is write-once, so the derived occupancy grid is computed once
    # on first access and never invalidated (net_congestion /
    # max_net_occupancy loops would otherwise re-divide the grid per net).
    _occupancy: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def occupancy(self) -> np.ndarray:
        """Demand / capacity per tile (1.0 = 100% congested), cached."""
        if self._occupancy is None:
            self._occupancy = self.demand / self.capacity
        return self._occupancy

    def net_tiles(self, net: int) -> List[Tuple[int, int]]:
        """Tiles covered by ``net``'s bounding box (empty for ignored nets)."""
        box = self.net_boxes[net]
        if box is None:
            return []
        ix0, iy0, ix1, iy1 = box
        return [(i, j) for i in range(ix0, ix1 + 1) for j in range(iy0, iy1 + 1)]

    def net_congestion(self, net: int) -> float:
        """Average occupancy of the tiles ``net`` passes through."""
        box = self.net_boxes[net]
        if box is None:
            return 0.0
        ix0, iy0, ix1, iy1 = box
        region = self.occupancy[ix0 : ix1 + 1, iy0 : iy1 + 1]
        return float(region.mean())

    def max_net_occupancy(self, net: int) -> float:
        """Worst tile occupancy under ``net``'s bounding box."""
        box = self.net_boxes[net]
        if box is None:
            return 0.0
        ix0, iy0, ix1, iy1 = box
        return float(self.occupancy[ix0 : ix1 + 1, iy0 : iy1 + 1].max())


def _demand_python(
    placement: Placement, nx: int, ny: int, tile_w: float, tile_h: float
) -> Tuple[np.ndarray, List[Optional[Tuple[int, int, int, int]]]]:
    """Scalar reference: one Python loop per net, one per covered tile."""
    die = placement.die
    netlist = placement.netlist
    demand = np.zeros((nx, ny))
    boxes: List[Optional[Tuple[int, int, int, int]]] = []

    for net in range(netlist.num_nets):
        cells = list(netlist.cells_of_net(net))
        if len(cells) < 2:
            boxes.append(None)
            continue
        xs = placement.x[cells]
        ys = placement.y[cells]
        x0, x1 = float(xs.min()), float(xs.max())
        y0, y1 = float(ys.min()), float(ys.max())
        # The wiring demand is the *true* half-perimeter wirelength (with a
        # small floor for pin access); the box is only the area the demand
        # is spread over.  Degenerate boxes are widened to half a tile so
        # stacked pins register, without inflating their demand.
        hpwl = max(x1 - x0, 0.0) + max(y1 - y0, 0.0)
        hpwl = max(hpwl, 0.5 * min(tile_w, tile_h) * 0.25)
        if x1 - x0 < tile_w / 2:
            mid = (x0 + x1) / 2
            x0, x1 = mid - tile_w / 4, mid + tile_w / 4
        if y1 - y0 < tile_h / 2:
            mid = (y0 + y1) / 2
            y0, y1 = mid - tile_h / 4, mid + tile_h / 4
        x0, y0 = die.clamp(x0, y0)
        x1, y1 = die.clamp(x1, y1)

        box_area = (x1 - x0) * (y1 - y0)
        density = hpwl / box_area if box_area > 0 else 0.0

        ix0 = min(nx - 1, max(0, int(x0 / tile_w)))
        ix1 = min(nx - 1, max(0, int(np.nextafter(x1, -np.inf) / tile_w)))
        iy0 = min(ny - 1, max(0, int(y0 / tile_h)))
        iy1 = min(ny - 1, max(0, int(np.nextafter(y1, -np.inf) / tile_h)))
        ix1, iy1 = max(ix0, ix1), max(iy0, iy1)
        boxes.append((ix0, iy0, ix1, iy1))

        for i in range(ix0, ix1 + 1):
            tile_x0, tile_x1 = i * tile_w, (i + 1) * tile_w
            overlap_x = min(x1, tile_x1) - max(x0, tile_x0)
            if overlap_x <= 0:
                continue
            for j in range(iy0, iy1 + 1):
                tile_y0, tile_y1 = j * tile_h, (j + 1) * tile_h
                overlap_y = min(y1, tile_y1) - max(y0, tile_y0)
                if overlap_y <= 0:
                    continue
                demand[i, j] += density * overlap_x * overlap_y
    return demand, boxes


def _demand_numpy(
    placement: Placement, nx: int, ny: int, tile_w: float, tile_h: float
) -> Tuple[np.ndarray, List[Optional[Tuple[int, int, int, int]]]]:
    """Batched RUDY: reduceat bounding boxes + coverage-factor matmul."""
    die = placement.die
    netlist = placement.netlist
    arrays = netlist.arrays
    num_nets = netlist.num_nets
    demand = np.zeros((nx, ny))
    boxes: List[Optional[Tuple[int, int, int, int]]] = [None] * num_nets
    keep = np.flatnonzero(arrays.net_degrees >= 2)
    if keep.size == 0:
        return demand, boxes

    x0, x1, y0, y1 = arrays.net_bboxes(placement.x, placement.y)
    x0, x1, y0, y1 = x0[keep], x1[keep], y0[keep], y1[keep]

    hpwl = np.maximum(x1 - x0, 0.0) + np.maximum(y1 - y0, 0.0)
    hpwl = np.maximum(hpwl, 0.5 * min(tile_w, tile_h) * 0.25)
    narrow_x = x1 - x0 < tile_w / 2
    mid_x = (x0 + x1) / 2
    x0 = np.where(narrow_x, mid_x - tile_w / 4, x0)
    x1 = np.where(narrow_x, mid_x + tile_w / 4, x1)
    narrow_y = y1 - y0 < tile_h / 2
    mid_y = (y0 + y1) / 2
    y0 = np.where(narrow_y, mid_y - tile_h / 4, y0)
    y1 = np.where(narrow_y, mid_y + tile_h / 4, y1)
    x0 = np.minimum(np.maximum(x0, 0.0), die.width)
    x1 = np.minimum(np.maximum(x1, 0.0), die.width)
    y0 = np.minimum(np.maximum(y0, 0.0), die.height)
    y1 = np.minimum(np.maximum(y1, 0.0), die.height)

    box_area = (x1 - x0) * (y1 - y0)
    density = np.zeros_like(hpwl)
    np.divide(hpwl, box_area, out=density, where=box_area > 0)

    ix0 = np.clip((x0 / tile_w).astype(np.int64), 0, nx - 1)
    ix1 = np.clip(
        (np.nextafter(x1, -np.inf) / tile_w).astype(np.int64), 0, nx - 1
    )
    iy0 = np.clip((y0 / tile_h).astype(np.int64), 0, ny - 1)
    iy1 = np.clip(
        (np.nextafter(y1, -np.inf) / tile_h).astype(np.int64), 0, ny - 1
    )
    ix1 = np.maximum(ix0, ix1)
    iy1 = np.maximum(iy0, iy1)

    for net, box in zip(
        keep.tolist(), zip(ix0.tolist(), iy0.tolist(), ix1.tolist(), iy1.tolist())
    ):
        boxes[net] = box

    # A net's demand is separable: tile (i, j) receives
    # ``density * coverage_x(i) * coverage_y(j)`` where the per-axis tile
    # coverage is a difference of tile boundaries clipped to the box
    # (identical to ``min(x1, tile_x1) - max(x0, tile_x0)`` on overlapping
    # tiles and exactly zero elsewhere).  The sum over nets of these rank-1
    # outer products is one (nets x nx)^T @ (nets x ny) matrix product —
    # no per-(net, tile) expansion at all.
    boundaries_x = np.arange(nx + 1) * tile_w
    boundaries_y = np.arange(ny + 1) * tile_h
    coverage_x = np.diff(
        np.clip(boundaries_x[None, :], x0[:, None], x1[:, None]), axis=1
    )
    coverage_y = np.diff(
        np.clip(boundaries_y[None, :], y0[:, None], y1[:, None]), axis=1
    )
    demand += coverage_x.T @ (density[:, None] * coverage_y)
    return demand, boxes


def build_congestion_map(
    placement: Placement,
    grid: Tuple[int, int] = (32, 32),
    capacity: Optional[float] = None,
    target_average_occupancy: float = 0.55,
) -> CongestionMap:
    """RUDY map of ``placement`` on a ``grid`` of tiles.

    Args:
        placement: a placed design.
        grid: ``(nx, ny)`` tile counts.
        capacity: per-tile routing capacity.  When omitted it is calibrated
            so the *average* tile occupancy equals
            ``target_average_occupancy`` — mirroring a technology where the
            design is routable on average but hotspots overshoot.
    """
    nx, ny = grid
    if nx < 1 or ny < 1:
        raise PlacementError("grid must be at least 1x1")
    die = placement.die
    tile_w = die.width / nx
    tile_h = die.height / ny
    if resolve_backend() == "python":
        demand, boxes = _demand_python(placement, nx, ny, tile_w, tile_h)
    else:
        demand, boxes = _demand_numpy(placement, nx, ny, tile_w, tile_h)

    if capacity is None:
        mean_demand = float(demand.mean())
        if mean_demand <= 0:
            capacity = 1.0
        else:
            capacity = mean_demand / target_average_occupancy
    return CongestionMap(
        demand=demand,
        capacity=float(capacity),
        tile_width=tile_w,
        tile_height=tile_h,
        net_boxes=boxes,
    )
