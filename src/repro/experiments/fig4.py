"""Figure 4 — GTLs found in Bigblue1, visualized on the placement.

The paper plots the placed design with each found GTL in its own color;
the GTLs appear as compact colored clots, i.e. a placer puts the cells of a
GTL close together.  Without a display we quantify the same statement: the
spatial dispersion (mean distance to centroid) of each found GTL is
compared against equally sized random cell groups — GTLs should be several
times more compact — and an ASCII map marks GTL locations.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.experiments.common import ExperimentResult
from repro.flow import detect
from repro.finder import FinderConfig
from repro.generators.ispd_like import default_bigblue1_like, generate_ispd_like
from repro.placement import place
from repro.utils.rng import ensure_rng


def _dispersion(x: np.ndarray, y: np.ndarray, cells: List[int]) -> float:
    xs, ys = x[cells], y[cells]
    return float(
        np.hypot(xs - xs.mean(), ys - ys.mean()).mean()
    )


def ascii_placement_map(
    placement, groups: List[List[int]], grid: int = 32
) -> str:
    """ASCII rendering of the placement: digits mark GTL tiles."""
    die = placement.die
    tw, th = die.width / grid, die.height / grid
    canvas = [[" "] * grid for _ in range(grid)]
    movable = placement.netlist.movable_cells()
    for cell in movable:
        i = min(int(placement.x[cell] / tw), grid - 1)
        j = min(int(placement.y[cell] / th), grid - 1)
        canvas[j][i] = "."
    for index, group in enumerate(groups):
        mark = str(index % 10)
        for cell in group:
            i = min(int(placement.x[cell] / tw), grid - 1)
            j = min(int(placement.y[cell] / th), grid - 1)
            canvas[j][i] = mark
    return "\n".join("".join(row) for row in reversed(canvas))


def run_fig4(
    scale: float = 0.25,
    num_seeds: int = 64,
    seed: int = 2010,
    show_map: bool = True,
) -> ExperimentResult:
    """Reproduce Figure 4 on the bigblue1-like design."""
    spec = default_bigblue1_like(scale)
    netlist, _ = generate_ispd_like(spec, seed=seed)
    report = detect(netlist, FinderConfig(num_seeds=num_seeds, seed=seed + 1))
    placement = place(netlist)

    rng = ensure_rng(seed + 2)
    movable = netlist.movable_cells()
    result = ExperimentResult(
        name="Figure 4 — found GTLs cluster spatially after placement",
        headers=["GTL", "size", "dispersion", "random dispersion", "compactness x"],
    )
    groups = []
    for index, gtl in enumerate(report.gtls, start=1):
        cells = sorted(gtl.cells)
        groups.append(cells)
        own = _dispersion(placement.x, placement.y, cells)
        random_groups = [rng.sample(movable, len(cells)) for _ in range(5)]
        random_dispersion = float(
            np.mean(
                [_dispersion(placement.x, placement.y, g) for g in random_groups]
            )
        )
        result.rows.append(
            [
                index,
                len(cells),
                round(own, 1),
                round(random_dispersion, 1),
                round(random_dispersion / max(own, 1e-9), 2),
            ]
        )
    if show_map and groups:
        result.notes.append(
            "placement map (digits = GTL cells, dots = other logic):\n"
            + ascii_placement_map(placement, groups)
        )
    result.notes.append(
        "paper: Fig 4 shows each found GTL as a compact colored clot in the "
        "Bigblue1 placement"
    )
    return result


if __name__ == "__main__":
    print(run_fig4().render())
