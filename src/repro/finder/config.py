"""Configuration of the tangled-logic finder."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import FinderError
from repro.metrics.gtl_score import ScoreContext
from repro.utils.configs import replace_checked

#: Netlist-level Rent exponent assumed when no ordering yields a usable
#: estimate (0.6 is a typical logic Rent exponent).  Reports produced with
#: this fallback carry ``rent_fallback=True``.
DEFAULT_RENT_EXPONENT = 0.6


@dataclass(frozen=True)
class FinderConfig:
    """All knobs of :class:`repro.finder.finder.TangledLogicFinder`.

    Every field can change the report.  How many processes run the seed
    trials is not a config field: it is the size of the
    :class:`~repro.service.pool.WorkerPool` the run is handed.

    Attributes:
        num_seeds: ``m``, number of independent random seed runs (the paper
            uses 100 for every experiment).
        max_order_length: ``Z``, maximum linear-ordering length.  ``0``
            selects ``min(100_000, max(64, |V| // 4))`` at run time (the
            paper caps Z at 100K cells).
        metric: prefix-scoring metric — ``"ngtl_s"`` or ``"gtl_sd"``
            (``"gtl_s"`` also accepted); the paper uses either in Phase II
            and reports both.
        min_gtl_size: smallest prefix admitted as a candidate.  The paper
            targets structures of hundreds to thousands of cells and
            explicitly ignores tiny clusters.
        clear_min_threshold: a prefix minimum qualifies as a *clear* minimum
            only if its score is below this value (average-quality groups
            score ~1, strong GTLs < 0.1).
        boundary_fraction: the minimum must occur before this fraction of
            the ordering, otherwise the curve is still descending at the
            right end (ratio-cut-like behaviour) and no GTL is declared.
        lambda_skip: during incremental weight updates, nets with at least
            this many outside pins are skipped (the paper's ``>= 20``
            constant-factor optimization).  ``0`` disables skipping.
        refine_count: number of interior re-seeds per candidate in Phase III
            (the paper uses 3).
        refine_length_factor: orderings grown during refinement are capped
            at ``factor * |B_i|`` (and never above ``max_order_length``);
            2.0 comfortably brackets the candidate's minimum.
        exclude_fixed: do not let fixed cells (IO pads) seed or join
            orderings; GTLs are logic structures.
        rent_min_prefix: smallest prefix size used by the Rent-exponent
            estimator (at least 2).
        seed_strategy: how seed cells are drawn — ``"uniform"`` (the
            paper), ``"pin_density"``, ``"clustering"`` or ``"stratified"``
            (see :mod:`repro.finder.seeding`).
        seed: RNG seed for reproducible runs (``None`` = nondeterministic).
    """

    num_seeds: int = 32
    max_order_length: int = 0
    metric: str = "gtl_sd"
    min_gtl_size: int = 30
    clear_min_threshold: float = 0.5
    boundary_fraction: float = 0.95
    lambda_skip: int = 20
    refine_count: int = 3
    refine_length_factor: float = 2.0
    exclude_fixed: bool = True
    rent_min_prefix: int = 8
    seed_strategy: str = "uniform"
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_seeds < 1:
            raise FinderError("num_seeds must be >= 1")
        if self.max_order_length < 0:
            raise FinderError("max_order_length must be >= 0 (0 = auto)")
        if self.metric not in ScoreContext.VALID_METRICS:
            raise FinderError(
                f"unknown metric {self.metric!r}; "
                f"expected one of {ScoreContext.VALID_METRICS}"
            )
        if self.min_gtl_size < 2:
            raise FinderError("min_gtl_size must be >= 2")
        if not 0 < self.boundary_fraction <= 1:
            raise FinderError("boundary_fraction must be in (0, 1]")
        if self.clear_min_threshold <= 0:
            raise FinderError("clear_min_threshold must be positive")
        if self.lambda_skip < 0:
            raise FinderError("lambda_skip must be >= 0")
        if self.refine_count < 0:
            raise FinderError("refine_count must be >= 0")
        if self.refine_length_factor < 1.0:
            raise FinderError("refine_length_factor must be >= 1")
        if self.rent_min_prefix < 2:
            # A size-1 prefix puts log(1) = 0 in the Rent fit's denominator.
            raise FinderError("rent_min_prefix must be >= 2")
        from repro.finder.seeding import STRATEGIES

        if self.seed_strategy not in STRATEGIES:
            raise FinderError(
                f"unknown seed_strategy {self.seed_strategy!r}; expected one "
                f"of {sorted(STRATEGIES)}"
            )

    def resolve_order_length(self, num_cells: int) -> int:
        """Effective ``Z`` for a netlist with ``num_cells`` cells."""
        if self.max_order_length:
            return min(self.max_order_length, max(num_cells - 1, 1))
        return min(100_000, max(64, num_cells // 4))

    def with_overrides(self, **kwargs) -> "FinderConfig":
        """Copy of this config with some fields replaced.

        Unknown keys raise :class:`~repro.errors.FinderError` listing the
        valid field names (instead of a bare ``dataclasses.replace``
        ``TypeError``).
        """
        return replace_checked(self, FinderError, **kwargs)
