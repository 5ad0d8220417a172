"""Table 3 — GTLs found on the industrial circuit.

Paper setup: a 65 nm commercial ASIC whose five dissolved-ROM blocks are
the ground-truth GTLs (sizes 31880/31914/31754/32002/10932); the method
recovers each within tens of cells (e.g. 31880 designed -> 31835 found),
with cuts of a few dozen nets and GTL-Scores ~0.025.

This harness runs on the industrial-like substitute (DESIGN.md §4), which
preserves the ground-truth ROM membership so designed-vs-found sizes are
exact.  Default block sizes are ~1/50 of the paper's; pass a custom
``spec`` for larger runs.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.overlap import match_to_ground_truth
from repro.experiments.common import ExperimentResult
from repro.flow import detect
from repro.finder import FinderConfig
from repro.generators.industrial import IndustrialSpec, generate_industrial


def run_table3(
    spec: Optional[IndustrialSpec] = None,
    num_seeds: int = 128,
    seed: int = 2010,
) -> ExperimentResult:
    """Reproduce Table 3.

    Args:
        spec: industrial-like design parameters (default: five dissolved
            ROMs, four large + one small, in ~12K gates of modular glue).
        num_seeds: finder seeds (the small block needs ~100+ to be hit).
        seed: RNG seed.
    """
    if spec is None:
        spec = IndustrialSpec()
    netlist, truth = generate_industrial(spec, seed=seed)
    config = FinderConfig(num_seeds=num_seeds, seed=seed + 1)
    report = detect(netlist, config)
    matches = match_to_ground_truth(truth, report.gtls)

    result = ExperimentResult(
        name="Table 3 — GTLs found on the industrial-like circuit",
        headers=[
            "size of GTL in design",
            "size of GTL found",
            "cut",
            "GTL-Score",
            "miss%",
            "over%",
        ],
    )
    for match in matches:
        if match.found is None:
            result.rows.append([len(match.truth), "(missed)", "-", "-", 100.0, 0.0])
        else:
            result.rows.append(
                [
                    len(match.truth),
                    match.found.size,
                    match.found.cut,
                    round(match.found.gtl_sd_score, 4),
                    round(100.0 * match.miss, 2),
                    round(100.0 * match.over, 2),
                ]
            )
    result.notes.append(
        "paper: designed 31880/31914/31754/32002/10932 -> found within ~50 "
        "cells each, cuts 28-36, GTL-Score 0.025-0.028"
    )
    return result


if __name__ == "__main__":
    print(run_table3().render())
