"""Figure 7 — routing congestion after cell inflation using GTL information.

Paper setup: every cell inside the found GTLs is inflated 4x and the design
is re-placed in the same die; compared to the original placement the number
of nets passing through 100%-congested tiles drops from 179K to 36K (~5x),
through 90%-congested tiles from 217K to 113K (~2x), and the average
congestion metric (worst-20% nets) from 136% to 91%.

The shape to reproduce: inflation yields a multi-x reduction of
100%-congested-tile nets, a ~2x reduction at 90%, and pushes the average
congestion below 100%.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.common import ExperimentResult
from repro.flow import detect
from repro.experiments.fig6 import (
    GRID,
    TARGET_AVERAGE_OCCUPANCY,
    UTILIZATION,
    ascii_congestion_map,
)
from repro.finder import FinderConfig
from repro.generators.industrial import IndustrialSpec, generate_industrial
from repro.placement import inflate_cells, place
from repro.routing import build_congestion_map, congestion_stats


def run_fig7(
    spec: Optional[IndustrialSpec] = None,
    num_seeds: int = 128,
    seed: int = 2010,
    inflation: float = 4.0,
    show_maps: bool = False,
) -> ExperimentResult:
    """Reproduce Figure 7 (and the congestion numbers of Section 5.1.3)."""
    if spec is None:
        spec = IndustrialSpec()
    netlist, _ = generate_industrial(spec, seed=seed)
    report = detect(netlist, FinderConfig(num_seeds=num_seeds, seed=seed + 1))
    gtl_cells = set()
    for gtl in report.gtls:
        gtl_cells.update(gtl.cells)

    placement = place(netlist, utilization=UTILIZATION)
    before_map = build_congestion_map(
        placement, grid=GRID, target_average_occupancy=TARGET_AVERAGE_OCCUPANCY
    )
    before = congestion_stats(before_map)

    inflated = inflate_cells(netlist, gtl_cells, factor=inflation)
    re_placement = place(inflated, die=placement.die)
    after_map = build_congestion_map(
        re_placement, grid=GRID, capacity=before_map.capacity
    )
    after = congestion_stats(after_map)

    def ratio(a: int, b: int) -> float:
        return a / b if b else float("inf")

    result = ExperimentResult(
        name="Figure 7 — congestion after 4x cell inflation inside GTLs",
        headers=["metric", "before", "after", "reduction"],
        rows=[
            [
                "nets through 100% tiles",
                before.nets_through_100,
                after.nets_through_100,
                f"{ratio(before.nets_through_100, after.nets_through_100):.1f}x",
            ],
            [
                "nets through 90% tiles",
                before.nets_through_90,
                after.nets_through_90,
                f"{ratio(before.nets_through_90, after.nets_through_90):.1f}x",
            ],
            [
                "avg congestion (worst 20% nets)",
                f"{before.average_congestion:.0%}",
                f"{after.average_congestion:.0%}",
                "-",
            ],
            [
                "peak tile occupancy",
                f"{before.max_occupancy:.0%}",
                f"{after.max_occupancy:.0%}",
                "-",
            ],
        ],
    )
    result.notes.append(
        f"GTLs found: {report.num_gtls}; cells inflated: {len(gtl_cells)} "
        f"({len(gtl_cells) / netlist.num_cells:.0%} of the design) by "
        f"{inflation:g}x"
    )
    result.notes.append(
        "paper: 179K->36K (5x) through 100% tiles, 217K->113K (~2x) through "
        "90% tiles, average congestion 136%->91%"
    )
    if show_maps:
        result.notes.append("before:\n" + ascii_congestion_map(before_map.occupancy))
        result.notes.append("after:\n" + ascii_congestion_map(after_map.occupancy))
    return result


if __name__ == "__main__":
    print(run_fig7(show_maps=True).render())
