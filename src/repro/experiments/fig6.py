"""Figures 1 + 6 — congestion hotspots coincide with the found GTLs.

Figure 1 shows the routing-congestion map of the placed industrial design
with hotspots over the dissolved-ROM regions; Figure 6 shows the
tangled-logic finder's solutions on the same placement and the paper notes
they "match almost exactly".  This harness places the industrial-like
design, builds the RUDY congestion map, and measures that coincidence: the
fraction of >=100% tiles containing found-GTL cells, and the mean occupancy
of GTL tiles versus the rest of the die.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.experiments.common import ExperimentResult
from repro.flow import detect
from repro.finder import FinderConfig
from repro.generators.industrial import IndustrialSpec, generate_industrial
from repro.placement import place
from repro.routing import build_congestion_map, congestion_stats

#: Calibration shared by fig6/fig7: average tile occupancy of a routable
#: technology; hotspots are the tail above 100%.
TARGET_AVERAGE_OCCUPANCY = 0.32
GRID: Tuple[int, int] = (24, 24)
UTILIZATION = 0.5


def ascii_congestion_map(occupancy: np.ndarray) -> str:
    """ASCII heat map: '#' >=100%, '+' >=90%, '.' >=50% of capacity."""
    nx, ny = occupancy.shape
    lines = []
    for j in range(ny - 1, -1, -1):
        row = []
        for i in range(nx):
            value = occupancy[i, j]
            row.append("#" if value >= 1 else "+" if value >= 0.9 else "." if value >= 0.5 else " ")
        lines.append("".join(row))
    return "\n".join(lines)


def run_fig6(
    spec: Optional[IndustrialSpec] = None,
    num_seeds: int = 128,
    seed: int = 2010,
    show_map: bool = True,
) -> ExperimentResult:
    """Reproduce Figures 1 and 6 on the industrial-like design."""
    if spec is None:
        spec = IndustrialSpec()
    netlist, _ = generate_industrial(spec, seed=seed)
    report = detect(netlist, FinderConfig(num_seeds=num_seeds, seed=seed + 1))
    placement = place(netlist, utilization=UTILIZATION)
    cmap = build_congestion_map(
        placement, grid=GRID, target_average_occupancy=TARGET_AVERAGE_OCCUPANCY
    )
    occupancy = cmap.occupancy
    stats = congestion_stats(cmap)

    nx, ny = GRID
    gtl_cells = set()
    for gtl in report.gtls:
        gtl_cells.update(gtl.cells)
    gtl_tiles = set()
    for cell in gtl_cells:
        i = min(int(placement.x[cell] / cmap.tile_width), nx - 1)
        j = min(int(placement.y[cell] / cmap.tile_height), ny - 1)
        gtl_tiles.add((i, j))
    hot_tiles = {
        (i, j) for i in range(nx) for j in range(ny) if occupancy[i, j] >= 1.0
    }
    coincidence = (
        len(hot_tiles & gtl_tiles) / len(hot_tiles) if hot_tiles else 0.0
    )
    gtl_occ = float(np.mean([occupancy[t] for t in gtl_tiles])) if gtl_tiles else 0.0
    other = [
        occupancy[i, j]
        for i in range(nx)
        for j in range(ny)
        if (i, j) not in gtl_tiles
    ]
    other_occ = float(np.mean(other)) if other else 0.0

    result = ExperimentResult(
        name="Figures 1+6 — hotspots coincide with found GTLs",
        headers=["quantity", "value"],
        rows=[
            ["GTLs found", report.num_gtls],
            ["hot (>=100%) tiles", len(hot_tiles)],
            ["hot tiles containing GTL cells", len(hot_tiles & gtl_tiles)],
            ["hot-tile/GTL coincidence", round(coincidence, 2)],
            ["mean occupancy of GTL tiles", round(gtl_occ, 2)],
            ["mean occupancy elsewhere", round(other_occ, 2)],
            ["peak occupancy", round(stats.max_occupancy, 2)],
        ],
    )
    if show_map:
        result.notes.append("congestion map (Fig 1):\n" + ascii_congestion_map(occupancy))
    result.notes.append(
        "paper: the GTLs captured in Fig 6 match almost exactly the routing "
        "hotspots in the upper part of Fig 1"
    )
    return result


if __name__ == "__main__":
    print(run_fig6().render())
