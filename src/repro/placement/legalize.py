"""Row legalization.

Two steps, both locality-preserving:

1. *Row assignment by capacity*: movable cells (including whitespace
   fillers, when the caller passes them) are scanned in y-order and packed
   into rows by cumulative width, so no row is oversubscribed.  With
   fillers included, total width equals total row capacity exactly and the
   assignment is a measure-preserving transform of the y distribution.
2. *Tetris in x*: within each row, cells keep their desired x where
   possible; overlaps are resolved by a left-to-right push followed by a
   right-edge pull-back.

Cells are unit height; a cell's width is its area.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.placement.region import Die


def legalize_rows(
    x: np.ndarray,
    y: np.ndarray,
    widths: Sequence[float],
    die: Die,
    movable: Optional[np.ndarray] = None,
    num_rows: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Legalize ``movable`` cells onto rows; returns new coordinates.

    Args:
        x, y: global-placement coordinates (all cells).
        widths: per-cell widths (area with unit height).
        die: the placement region.
        movable: cells to legalize (defaults to all).
        num_rows: rows to use; 0 derives one row per height unit, which
            makes a full row correspond to local density 1.0.

    For a distortion-free result the caller should include whitespace
    filler entries in ``movable`` so that total width matches total row
    capacity (see :func:`repro.placement.spreading.make_fillers`).
    """
    x = np.asarray(x, dtype=float).copy()
    y = np.asarray(y, dtype=float).copy()
    width_arr = np.asarray(widths, dtype=float)
    if movable is None:
        movable = np.arange(len(x))
    movable = np.asarray(movable, dtype=np.int64)
    if movable.size == 0:
        return x, y

    if num_rows <= 0:
        num_rows = die.num_rows or max(1, int(round(die.height)))
    row_pitch = die.height / num_rows
    capacity = die.width

    # Step 1: capacity-respecting row assignment in y-order (ties by x for
    # determinism).
    order = movable[np.lexsort((x[movable], y[movable]))]
    # Quantile assignment: a cell whose cumulative width midpoint falls in
    # row r's capacity band goes to row r.  Rows may overflow by a fraction
    # of one cell but there is no cumulative drift.
    w_sorted = np.minimum(width_arr[order], capacity)
    cumulative = np.cumsum(w_sorted) - w_sorted / 2.0
    rows = np.minimum((cumulative / capacity).astype(np.int64), num_rows - 1)

    # Step 2: Tetris within each row.
    for r in range(rows.max() + 1 if rows.size else 0):
        members = order[rows == r]
        if members.size == 0:
            continue
        sub = members[np.argsort(x[members], kind="stable")]
        total_width = width_arr[sub].sum()
        scale = min(1.0, capacity / total_width) if total_width > 0 else 1.0

        cursor = 0.0
        lefts = np.empty(sub.size)
        for k, cell in enumerate(sub):
            w = width_arr[cell] * scale
            desired_left = x[cell] - w / 2.0
            cursor = max(cursor, desired_left)
            lefts[k] = cursor
            cursor += w
        overflow = cursor - capacity
        if overflow > 0:
            cursor = capacity
            for k in range(sub.size - 1, -1, -1):
                w = width_arr[sub[k]] * scale
                lefts[k] = min(lefts[k], cursor - w)
                cursor = lefts[k]
            # Rounding in the scaled widths can overfill the row by a few
            # ulp, so the pull-back may drive the packed prefix past the
            # left die edge.  Clamping each cell at 0 individually would
            # reintroduce exactly the overlaps the pull-back resolved;
            # shifting the whole row right preserves every gap (lefts is
            # non-decreasing after the pull-back, so lefts[0] is the
            # leftmost edge).
            if lefts[0] < 0.0:
                lefts -= lefts[0]
        for k, cell in enumerate(sub):
            w = width_arr[cell] * scale
            x[cell] = lefts[k] + w / 2.0
        y[sub] = (r + 0.5) * row_pitch
    return x, y
