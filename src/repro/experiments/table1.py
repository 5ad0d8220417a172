"""Table 1 — experiments on random graphs with planted GTLs.

Paper setup: four random graphs (10K..800K nodes) with known planted GTLs
(500x1, 2K+15K, 5K, 40Kx6), 100 seeds each; reported per planted GTL: the
found size, nGTL-Score, density-aware GTL-Score, miss%, over%.  The paper
finds every GTL, misses at most 0.14% of nodes and over-includes at most
0.5%.

Default scale here is 1/10 of the paper (Python single-process); pass
``scale=1.0`` for paper-size graphs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.analysis.overlap import match_to_ground_truth
from repro.experiments.common import ExperimentResult
from repro.flow import detect
from repro.finder import FinderConfig
from repro.generators.random_gtl import planted_gtl_graph

#: The paper's four cases: (|V|, planted sizes).
PAPER_CASES: Tuple[Tuple[int, Tuple[int, ...]], ...] = (
    (10_000, (500,)),
    (100_000, (2_000, 15_000)),
    (100_000, (5_000,)),
    (800_000, (40_000,) * 6),
)


def scaled_cases(scale: float) -> List[Tuple[int, Tuple[int, ...]]]:
    """The paper's cases with every size multiplied by ``scale``."""
    cases = []
    for num_cells, sizes in PAPER_CASES:
        cases.append(
            (
                max(1000, int(num_cells * scale)),
                tuple(max(50, int(s * scale)) for s in sizes),
            )
        )
    return cases


def run_table1(
    scale: float = 0.1,
    num_seeds: int = 100,
    seed: int = 2010,
    cases: Optional[Sequence[Tuple[int, Sequence[int]]]] = None,
) -> ExperimentResult:
    """Reproduce Table 1.

    Args:
        scale: size multiplier on the paper's graphs (0.1 default).
        num_seeds: finder seeds per case (paper: 100).
        seed: RNG seed for generation and the finder.
        cases: explicit ``(num_cells, gtl_sizes)`` cases (overrides scale).
    """
    if cases is None:
        cases = scaled_cases(scale)

    result = ExperimentResult(
        name="Table 1 — random graphs with planted GTLs",
        headers=[
            "case",
            "|V|",
            "planted",
            "#seeds",
            "#found",
            "size found",
            "nGTL-S",
            "GTL-SD",
            "miss%",
            "over%",
        ],
    )

    for case_index, (num_cells, gtl_sizes) in enumerate(cases, start=1):
        netlist, truth = planted_gtl_graph(
            num_cells, list(gtl_sizes), seed=seed + case_index
        )
        config = FinderConfig(num_seeds=num_seeds, seed=seed + 100 + case_index)
        report = detect(netlist, config)
        matches = match_to_ground_truth(truth, report.gtls)
        detected = sum(1 for m in matches if m.detected)

        planted_text = "+".join(str(len(t)) for t in truth)
        first = True
        for match in matches:
            if match.found is None:
                row = [
                    case_index if first else "",
                    num_cells if first else "",
                    planted_text if first else "",
                    num_seeds if first else "",
                    detected if first else "",
                    "(missed)",
                    "-",
                    "-",
                    100.0,
                    0.0,
                ]
            else:
                row = [
                    case_index if first else "",
                    num_cells if first else "",
                    planted_text if first else "",
                    num_seeds if first else "",
                    detected if first else "",
                    match.found.size,
                    round(match.found.ngtl_score, 4),
                    round(match.found.gtl_sd_score, 4),
                    round(100.0 * match.miss, 2),
                    round(100.0 * match.over, 2),
                ]
            result.rows.append(row)
            first = False

    result.notes.append(
        "paper: all GTLs found, miss <= 0.14%, over <= 0.5%, scores ~0.001-0.1"
    )
    return result


if __name__ == "__main__":
    print(run_table1().render())
