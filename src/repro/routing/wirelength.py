"""Wirelength models for placed designs.

Placement quality and routing demand are quoted in different wirelength
models; this module implements the standard ladder:

* **HPWL** — half-perimeter of the net bounding box (lower bound, exact
  for 2-3 pins);
* **star** — sum of pin distances to the net's centroid;
* **clique** — average pairwise Manhattan distance, scaled to the
  2-pin-equivalent;
* **spanning tree (RMST)** — Manhattan minimum spanning tree via Prim,
  the usual router-independent estimate for multi-pin nets.

HPWL and star totals over a whole design run batched on the netlist's
flat pin arrays (:class:`repro.netlist.arrays.NetlistArrays`) via
``reduceat``; the per-net scalar functions stay as the reference
implementation, selected by ``REPRO_SCALAR_BACKEND=1`` (see
:mod:`repro.netlist.backend`), and remain the only path for clique/RMST
and explicit net subsets.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from repro.errors import ReproError
from repro.netlist.backend import resolve_backend
from repro.placement.placer import Placement


def _net_points(placement: Placement, net: int) -> np.ndarray:
    cells = list(placement.netlist.cells_of_net(net))
    return np.stack([placement.x[cells], placement.y[cells]], axis=1)


def hpwl_net(placement: Placement, net: int) -> float:
    """Half-perimeter wirelength of one net."""
    points = _net_points(placement, net)
    if len(points) < 2:
        return 0.0
    spans = points.max(axis=0) - points.min(axis=0)
    return float(spans.sum())


def star_net(placement: Placement, net: int) -> float:
    """Star wirelength: pin-to-centroid Manhattan distances."""
    points = _net_points(placement, net)
    if len(points) < 2:
        return 0.0
    centroid = points.mean(axis=0)
    return float(np.abs(points - centroid).sum())


def clique_net(placement: Placement, net: int) -> float:
    """Clique wirelength: mean pairwise distance times (degree - 1)."""
    points = _net_points(placement, net)
    degree = len(points)
    if degree < 2:
        return 0.0
    total = 0.0
    for i in range(degree):
        deltas = np.abs(points[i + 1 :] - points[i])
        total += float(deltas.sum())
    pairs = degree * (degree - 1) / 2
    return total / pairs * (degree - 1)


def rmst_net(placement: Placement, net: int) -> float:
    """Manhattan minimum spanning tree length (Prim's algorithm)."""
    points = _net_points(placement, net)
    degree = len(points)
    if degree < 2:
        return 0.0
    in_tree = np.zeros(degree, dtype=bool)
    in_tree[0] = True
    best = np.abs(points - points[0]).sum(axis=1)
    total = 0.0
    for _ in range(degree - 1):
        best_masked = np.where(in_tree, np.inf, best)
        nxt = int(best_masked.argmin())
        total += float(best_masked[nxt])
        in_tree[nxt] = True
        candidate = np.abs(points - points[nxt]).sum(axis=1)
        best = np.minimum(best, candidate)
    return total


_MODELS = {
    "hpwl": hpwl_net,
    "star": star_net,
    "clique": clique_net,
    "rmst": rmst_net,
}


def _total_star_vectorized(placement: Placement) -> float:
    arrays = placement.netlist.arrays
    if arrays.net_cells.size == 0:
        return 0.0
    xs = placement.x[arrays.net_cells]
    ys = placement.y[arrays.net_cells]
    starts = arrays.net_ptr[:-1]
    degrees = arrays.net_degrees.astype(np.float64)
    centroid_x = np.add.reduceat(xs, starts) / degrees
    centroid_y = np.add.reduceat(ys, starts) / degrees
    spread = np.add.reduceat(
        np.abs(xs - centroid_x[arrays.pin_net]), starts
    ) + np.add.reduceat(np.abs(ys - centroid_y[arrays.pin_net]), starts)
    spread = spread[arrays.net_degrees >= 2]
    return float(spread.sum()) if spread.size else 0.0


def total_wirelength(
    placement: Placement,
    model: str = "hpwl",
    nets: Optional[Iterable[int]] = None,
) -> float:
    """Total wirelength of ``placement`` under the named model.

    HPWL and star totals over the whole design are computed batched on the
    flat pin arrays; clique/RMST (sequential per-net algorithms) and
    explicit ``nets`` subsets always take the scalar per-net path.
    """
    if model not in _MODELS:
        raise ReproError(f"unknown wirelength model {model!r}; use {sorted(_MODELS)}")
    if nets is None and resolve_backend() == "numpy":
        if model == "hpwl":
            return placement._hpwl_numpy()
        if model == "star":
            return _total_star_vectorized(placement)
    function = _MODELS[model]
    if nets is None:
        nets = range(placement.netlist.num_nets)
    return sum(function(placement, net) for net in nets)


def wirelength_report(placement: Placement) -> Dict[str, float]:
    """All four models for one placement (HPWL <= RMST always)."""
    return {model: total_wirelength(placement, model) for model in _MODELS}
