"""Figure 2 — nGTL-Score versus group size for two cell agglomerations.

Paper setup: a random graph with 250K cells containing one planted GTL of
40K cells.  Growing a group from a seed *outside* the GTL yields a curve
that starts ~0.3 and asymptotically approaches ~0.9; growing from a seed
*inside* rises past 1.5 and then drops precipitously to a local minimum of
~0.1 exactly when the whole GTL has been absorbed, rising again afterwards.

Default scale is 1/10 of the paper (25K cells / 4K GTL).
"""

from __future__ import annotations

from repro.analysis.curves import agglomeration_curve
from repro.experiments.common import ExperimentResult
from repro.generators.random_gtl import planted_gtl_graph
from repro.utils.rng import ensure_rng


def run_fig2(
    num_cells: int = 25_000,
    gtl_size: int = 4_000,
    seed: int = 2010,
    metric: str = "ngtl_s",
    name: str = "Figure 2 — nGTL-Score vs group size",
) -> ExperimentResult:
    """Reproduce Figure 2 (and, with ``metric="gtl_sd"``, Figure 3).

    Args:
        num_cells: graph size (paper: 250K).
        gtl_size: planted GTL size (paper: 40K).
        seed: RNG seed.
        metric: ``"ngtl_s"`` (Fig 2) or ``"gtl_sd"`` (Fig 3).
        name: result title.
    """
    netlist, truth = planted_gtl_graph(num_cells, [gtl_size], seed=seed)
    gtl = truth[0]
    rng = ensure_rng(seed + 1)
    inside_seed = rng.choice(sorted(gtl))
    outside = [c for c in range(netlist.num_cells) if c not in gtl]
    outside_seed = rng.choice(outside)

    max_length = min(netlist.num_cells - 1, int(2.5 * gtl_size))
    inside_curve = agglomeration_curve(
        netlist, inside_seed, max_length, metric=metric, label="seed inside GTL"
    )
    outside_curve = agglomeration_curve(
        netlist, outside_seed, max_length, metric=metric, label="seed outside GTL"
    )

    result = ExperimentResult(name=name)
    result.series["seed inside GTL"] = list(
        zip(inside_curve.sizes, inside_curve.values)
    )
    result.series["seed outside GTL"] = list(
        zip(outside_curve.sizes, outside_curve.values)
    )

    min_size, min_value = inside_curve.minimum
    result.notes.append(
        f"inside-seed minimum {min_value:.3f} at size {min_size} "
        f"(planted GTL size {gtl_size}); paper: ~0.1 at the GTL boundary"
    )
    tail = outside_curve.values[-max(1, len(outside_curve.values) // 10) :]
    result.notes.append(
        f"outside-seed tail average {sum(tail) / len(tail):.3f}; paper: "
        "curve asymptotically approaches ~0.9"
    )
    return result


if __name__ == "__main__":
    print(run_fig2().render())
