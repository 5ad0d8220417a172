"""Quadratic (analytic) global placement.

Minimizes the weighted sum of squared edge lengths.  Nets are decomposed
into two-point springs:

* nets with up to ``clique_limit`` pins become cliques with the standard
  ``2 / (deg * (deg - 1))`` weights (total net weight 1);
* larger nets become rings over their pins (each pin two springs), keeping
  the system sparse while still pulling the net together.

The two axes decouple into independent linear systems ``L x = b`` over the
movable cells, with fixed pads contributing to the diagonal and the right-
hand side.  Systems are solved with scipy's conjugate gradients; a small
diagonal regularization anchored at the die center keeps the system
positive definite even when a component touches no pad.

Assembly is batched: clique pair and ring successor index arrays are built
with numpy gathers over the netlist's flat pin arrays
(:class:`repro.netlist.arrays.NetlistArrays`) and scattered into the system
with ``np.add.at`` — no per-pin ``list.append``.  The original per-pin
Python assembly stays as the reference, selected by
``REPRO_SCALAR_BACKEND=1`` (see :mod:`repro.netlist.backend`).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from repro.errors import PlacementError
from repro.netlist.backend import resolve_backend
from repro.netlist.hypergraph import Netlist
from repro.placement.region import Die


def _placement_frame(
    netlist: Netlist, pad_positions: Dict[int, Tuple[float, float]]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fixed mask, movable index set and pad coordinate arrays."""
    num_cells = netlist.num_cells
    fixed_mask = np.zeros(num_cells, dtype=bool)
    for cell, _ in pad_positions.items():
        fixed_mask[cell] = True
    for cell in range(num_cells):
        if netlist.cell_is_fixed(cell) and not fixed_mask[cell]:
            raise PlacementError(f"fixed cell {cell} has no pad position")
    movable = np.flatnonzero(~fixed_mask)
    index_of = -np.ones(num_cells, dtype=np.int64)
    index_of[movable] = np.arange(movable.size)
    fixed_x = np.zeros(num_cells)
    fixed_y = np.zeros(num_cells)
    for cell, (px, py) in pad_positions.items():
        fixed_x[cell], fixed_y[cell] = px, py
    return fixed_mask, movable, index_of, fixed_x, fixed_y


def _spring_arrays_numpy(
    netlist: Netlist, clique_limit: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Endpoint and weight arrays of every net spring, built without
    Python loops over pins (cliques grouped by degree, rings in one gather)."""
    arrays = netlist.arrays
    degrees = arrays.net_degrees
    starts = arrays.net_ptr[:-1]
    a_parts, b_parts, w_parts = [], [], []

    for degree in range(2, clique_limit + 1):
        nets = np.flatnonzero(degrees == degree)
        if nets.size == 0:
            continue
        members = arrays.net_cells[starts[nets][:, None] + np.arange(degree)]
        ii, jj = np.triu_indices(degree, k=1)
        a_parts.append(members[:, ii].ravel())
        b_parts.append(members[:, jj].ravel())
        w_parts.append(
            np.full(nets.size * ii.size, 2.0 / (degree * (degree - 1)))
        )

    rings = np.flatnonzero(degrees > clique_limit)
    if rings.size:
        ring_degrees = degrees[rings]
        pin_start = np.repeat(starts[rings], ring_degrees)
        pin_degree = np.repeat(ring_degrees, ring_degrees)
        total = int(ring_degrees.sum())
        position = np.arange(total) - np.repeat(
            np.cumsum(ring_degrees) - ring_degrees, ring_degrees
        )
        a_parts.append(arrays.net_cells[pin_start + position])
        b_parts.append(arrays.net_cells[pin_start + (position + 1) % pin_degree])
        w_parts.append(np.repeat(1.0 / ring_degrees, ring_degrees))

    if not a_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0)
    return (
        np.concatenate(a_parts),
        np.concatenate(b_parts),
        np.concatenate(w_parts),
    )


def _assemble_numpy(
    netlist: Netlist,
    clique_limit: int,
    fixed_mask: np.ndarray,
    index_of: np.ndarray,
    fixed_x: np.ndarray,
    fixed_y: np.ndarray,
    num_movable: int,
):
    """Scatter the spring arrays into diag / off-diagonals / rhs."""
    a, b, w = _spring_arrays_numpy(netlist, clique_limit)
    diag = np.zeros(num_movable)
    bx = np.zeros(num_movable)
    by = np.zeros(num_movable)
    a_movable = ~fixed_mask[a]
    b_movable = ~fixed_mask[b]
    ia = index_of[a]
    ib = index_of[b]
    np.add.at(diag, ia[a_movable], w[a_movable])
    np.add.at(diag, ib[b_movable], w[b_movable])
    both = a_movable & b_movable
    rows = np.concatenate([ia[both], ib[both]])
    cols = np.concatenate([ib[both], ia[both]])
    vals = np.concatenate([-w[both], -w[both]])
    a_only = a_movable & ~b_movable
    np.add.at(bx, ia[a_only], w[a_only] * fixed_x[b[a_only]])
    np.add.at(by, ia[a_only], w[a_only] * fixed_y[b[a_only]])
    b_only = b_movable & ~a_movable
    np.add.at(bx, ib[b_only], w[b_only] * fixed_x[a[b_only]])
    np.add.at(by, ib[b_only], w[b_only] * fixed_y[a[b_only]])
    return rows, cols, vals, diag, bx, by


def _assemble_python(
    netlist: Netlist,
    clique_limit: int,
    fixed_mask: np.ndarray,
    index_of: np.ndarray,
    fixed_x: np.ndarray,
    fixed_y: np.ndarray,
    num_movable: int,
):
    """Scalar reference: the original per-pin ``add_spring`` assembly."""
    rows, cols, vals = [], [], []
    diag = np.zeros(num_movable)
    bx = np.zeros(num_movable)
    by = np.zeros(num_movable)

    def add_spring(a: int, b: int, weight: float) -> None:
        a_mov, b_mov = not fixed_mask[a], not fixed_mask[b]
        if a_mov:
            ia = index_of[a]
            diag[ia] += weight
        if b_mov:
            ib = index_of[b]
            diag[ib] += weight
        if a_mov and b_mov:
            rows.append(index_of[a])
            cols.append(index_of[b])
            vals.append(-weight)
            rows.append(index_of[b])
            cols.append(index_of[a])
            vals.append(-weight)
        elif a_mov:
            bx[index_of[a]] += weight * fixed_x[b]
            by[index_of[a]] += weight * fixed_y[b]
        elif b_mov:
            bx[index_of[b]] += weight * fixed_x[a]
            by[index_of[b]] += weight * fixed_y[a]

    for net in range(netlist.num_nets):
        cells = netlist.cells_of_net(net)
        degree = len(cells)
        if degree < 2:
            continue
        if degree <= clique_limit:
            weight = 2.0 / (degree * (degree - 1))
            for i in range(degree):
                for j in range(i + 1, degree):
                    add_spring(cells[i], cells[j], weight)
        else:
            weight = 1.0 / degree
            for i in range(degree):
                add_spring(cells[i], cells[(i + 1) % degree], weight)
    return rows, cols, vals, diag, bx, by


def assemble_quadratic_system(
    netlist: Netlist,
    pad_positions: Dict[int, Tuple[float, float]],
    clique_limit: int = 5,
) -> Tuple[scipy.sparse.csr_matrix, np.ndarray, np.ndarray, np.ndarray]:
    """Net-spring system before anchors: ``(laplacian, bx, by, movable)``.

    The Laplacian (diagonal included) and right-hand sides cover the
    movable cells only.  Exposed so benchmarks and parity tests can compare
    the ``"numpy"`` and ``"python"`` assembly backends (under
    :func:`repro.netlist.backend.forced_backend`).
    """
    fixed_mask, movable, index_of, fixed_x, fixed_y = _placement_frame(
        netlist, pad_positions
    )
    assemble = _assemble_python if resolve_backend() == "python" else _assemble_numpy
    rows, cols, vals, diag, bx, by = assemble(
        netlist, clique_limit, fixed_mask, index_of, fixed_x, fixed_y, movable.size
    )
    n = movable.size
    laplacian = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    laplacian += scipy.sparse.diags(diag)
    return laplacian, bx, by, movable


def solve_quadratic_placement(
    netlist: Netlist,
    die: Die,
    pad_positions: Dict[int, Tuple[float, float]],
    clique_limit: int = 5,
    anchor_weight: float = 1e-6,
    anchors: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    anchor_mode: str = "relative",
    tol: float = 1e-7,
) -> Tuple[np.ndarray, np.ndarray]:
    """Solve the quadratic placement; returns per-cell ``(x, y)`` arrays.

    Args:
        netlist: the design.
        die: placement region.
        pad_positions: coordinates of every fixed cell.
        clique_limit: largest net modeled as a clique (rings beyond).
        anchor_weight: anchor spring strength.  With ``anchors=None`` this
            is a tiny absolute regularization toward the die center.  With
            explicit anchors it is *relative*: each cell's anchor spring is
            ``anchor_weight`` times the total weight of its incident net
            springs, so the wirelength-vs-density balance is uniform across
            cells of different connectivity (1.0 = anchor as strong as all
            nets combined; small values let connected groups contract).
        anchors: per-cell ``(x, y)`` anchor coordinates from a previous
            spreading step.  Anchored re-solves are how the placer iterates
            between wirelength optimization and density control.
        anchor_mode: ``"relative"`` (anchor spring proportional to the
            cell's incident net weight — every cell contracts by the same
            geometric fraction) or ``"absolute"`` (one spring constant for
            all cells — highly connected cells overcome their anchor and
            contract harder, which is how tangled logic ends up packed
            more tightly than ordinary logic).
        tol: conjugate-gradient tolerance.

    Fixed cells keep their ``pad_positions`` coordinates in the output.
    """
    num_cells = netlist.num_cells
    fixed_mask, movable, index_of, fixed_x, fixed_y = _placement_frame(
        netlist, pad_positions
    )
    if movable.size == 0:
        x = np.zeros(num_cells)
        y = np.zeros(num_cells)
        for cell, (px, py) in pad_positions.items():
            x[cell], y[cell] = px, py
        return x, y

    assemble = _assemble_python if resolve_backend() == "python" else _assemble_numpy
    rows, cols, vals, diag, bx, by = assemble(
        netlist, clique_limit, fixed_mask, index_of, fixed_x, fixed_y, movable.size
    )

    # Anchor springs: absolute center regularization without anchors,
    # connectivity-relative anchors otherwise.
    if anchors is None:
        center_x, center_y = die.center
        spring = np.full(movable.size, anchor_weight)
        target_x = np.full(movable.size, center_x)
        target_y = np.full(movable.size, center_y)
    else:
        anchor_x, anchor_y = anchors
        if anchor_mode == "relative":
            spring = anchor_weight * np.maximum(diag, 1e-12)
        elif anchor_mode == "absolute":
            spring = np.full(movable.size, anchor_weight)
        else:
            raise PlacementError(f"unknown anchor_mode {anchor_mode!r}")
        # Isolated cells (no nets) get a unit spring so they stay put.
        spring[diag == 0] = 1.0
        target_x = np.asarray(anchor_x, dtype=float)[movable]
        target_y = np.asarray(anchor_y, dtype=float)[movable]
    diag = diag + spring
    bx = bx + spring * target_x
    by = by + spring * target_y

    n = movable.size
    laplacian = scipy.sparse.coo_matrix(
        (vals, (rows, cols)), shape=(n, n)
    ).tocsr()
    laplacian += scipy.sparse.diags(diag)

    solution_x = _solve(laplacian, bx, tol)
    solution_y = _solve(laplacian, by, tol)

    x = fixed_x.copy()
    y = fixed_y.copy()
    x[movable] = solution_x
    y[movable] = solution_y
    x = np.clip(x, 0.0, die.width)
    y = np.clip(y, 0.0, die.height)
    return x, y


def _solve(matrix, rhs: np.ndarray, tol: float) -> np.ndarray:
    solution, info = scipy.sparse.linalg.cg(matrix, rhs, rtol=tol, maxiter=2000)
    if info > 0:
        # CG hit maxiter: the partial solution is still a usable placement
        # seed, but surface hard failures.
        residual = np.linalg.norm(matrix @ solution - rhs)
        if residual > 1e-3 * max(np.linalg.norm(rhs), 1.0):
            raise PlacementError(f"conjugate gradients stalled (residual {residual:g})")
    elif info < 0:
        raise PlacementError("conjugate gradients failed (bad system)")
    return solution
