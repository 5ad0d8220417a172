"""Result types of the tangled-logic finder."""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

from repro.finder.config import FinderConfig
from repro.utils.tables import format_table


@dataclass(frozen=True)
class GTL:
    """One discovered group of tangled logic.

    Attributes:
        cells: member cell indices.
        size: |C|.
        cut: net cut T(C).
        ngtl_score: normalized GTL-Score of the group.
        gtl_sd_score: density-aware GTL-Score of the group.
        score: value of the metric the finder was configured with (one of
            the two above, or the unnormalized GTL-S).
        seed: the random seed cell whose run produced the group.
        rent_exponent: Rent exponent used for the final scoring.
    """

    cells: FrozenSet[int]
    size: int
    cut: int
    ngtl_score: float
    gtl_sd_score: float
    score: float
    seed: int
    rent_exponent: float

    def __contains__(self, cell: int) -> bool:
        return cell in self.cells


@dataclass(frozen=True)
class FinderReport:
    """Full output of one finder run.

    Attributes:
        gtls: disjoint GTLs, best score first.
        config: the configuration used.
        rent_exponent: netlist-level Rent exponent (average over orderings).
        num_orderings: Phase I orderings grown (seeds + refinement re-seeds).
        num_candidates: Phase II candidates before refinement/pruning.
        runtime_seconds: wall-clock time of the whole pipeline.
        rent_fallback: True when no ordering produced a usable Rent estimate
            and ``rent_exponent`` is the assumed
            :data:`~repro.finder.config.DEFAULT_RENT_EXPONENT`.
    """

    gtls: Tuple[GTL, ...]
    config: FinderConfig
    rent_exponent: float
    num_orderings: int
    num_candidates: int
    runtime_seconds: float
    rent_fallback: bool = False

    @property
    def num_gtls(self) -> int:
        """Number of disjoint GTLs found."""
        return len(self.gtls)

    def top(self, count: int) -> Tuple[GTL, ...]:
        """The ``count`` best-scoring GTLs."""
        return self.gtls[:count]

    def summary(self) -> str:
        """Human-readable table shaped like the paper's result tables."""
        headers = ["#", "size", "cut", "nGTL-S", "GTL-SD", "seed"]
        rows = [
            [i + 1, g.size, g.cut, g.ngtl_score, g.gtl_sd_score, g.seed]
            for i, g in enumerate(self.gtls)
        ]
        body = format_table(headers, rows) if rows else "(no GTLs found)"
        rent = f"p={self.rent_exponent:.3f}"
        if self.rent_fallback:
            rent += " (assumed default; no ordering yielded an estimate)"
        return (
            f"{self.num_gtls} GTL(s), Rent exponent {rent}, "
            f"{self.num_candidates} candidate(s) from {self.num_orderings} "
            f"ordering(s), {self.runtime_seconds:.2f}s\n{body}"
        )
