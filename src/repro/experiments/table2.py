"""Table 2 — experiments on ISPD 05/06-shaped placement benchmarks.

Paper setup: six ISPD placement benchmarks (bigblue1-3, adaptec1-3,
211K-1.1M cells), 100 seeds each; reported: number of GTLs found, the top-3
GTLs' size / cut / GTL-S / GTL-SD, and the runtime in minutes.

This harness runs the synthetic ISPD-like suite by default (see DESIGN.md
§4).  Real Bookshelf benchmarks can be substituted by passing parsed
netlists via ``netlists``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.experiments.common import ExperimentResult
from repro.flow import detect
from repro.finder import FinderConfig
from repro.generators.ispd_like import generate_ispd_like, ispd_like_suite
from repro.netlist.hypergraph import Netlist


def run_table2(
    scale: float = 0.25,
    num_seeds: int = 100,
    seed: int = 2010,
    top_k: int = 3,
    netlists: Optional[Sequence[Tuple[str, Netlist]]] = None,
) -> ExperimentResult:
    """Reproduce Table 2.

    Args:
        scale: size multiplier on the synthetic suite (0.25 default; 1.0 is
            ~17K-65K cells per design — the paper's designs are ~15x that).
        num_seeds: finder seeds per benchmark (paper: 100).
        seed: RNG seed.
        top_k: how many top GTLs to report per benchmark (paper: 3).
        netlists: optional explicit ``(name, netlist)`` benchmarks, e.g.
            parsed from real ISPD Bookshelf files.
    """
    result = ExperimentResult(
        name="Table 2 — ISPD-like placement benchmarks",
        headers=[
            "case",
            "|V|",
            "#seeds",
            "#GTLs",
            "structure",
            "GTL size",
            "cut",
            "GTL-S",
            "GTL-SD",
            "runtime(m)",
        ],
    )

    if netlists is None:
        benches = []
        for index, spec in enumerate(ispd_like_suite(scale)):
            netlist, _ = generate_ispd_like(spec, seed=seed + index)
            benches.append((spec.name, netlist))
    else:
        benches = list(netlists)

    for bench_index, (name, netlist) in enumerate(benches):
        config = FinderConfig(num_seeds=num_seeds, seed=seed + bench_index)
        report = detect(netlist, config)
        # The report's own runtime, not wall clock around detect(): a cache
        # hit must still show the detection time the paper column compares.
        runtime_minutes = round(report.runtime_seconds / 60.0, 2)
        top = report.top(top_k)
        if not top:
            result.rows.append(
                [name, netlist.num_cells, num_seeds, 0, "-", "-", "-", "-", "-",
                 runtime_minutes]
            )
            continue
        for rank, gtl in enumerate(top, start=1):
            first = rank == 1
            result.rows.append(
                [
                    name if first else "",
                    netlist.num_cells if first else "",
                    num_seeds if first else "",
                    report.num_gtls if first else "",
                    f"Structure {rank}",
                    gtl.size,
                    gtl.cut,
                    round(gtl.ngtl_score, 3),
                    round(gtl.gtl_sd_score, 3),
                    runtime_minutes if first else "",
                ]
            )

    result.notes.append(
        "paper: 54-112 GTLs per design, top GTL sizes 297-13888, "
        "GTL-S 0.065-0.686, runtimes 77-159 minutes at 8 threads"
    )
    return result


if __name__ == "__main__":
    print(run_table2().render())
