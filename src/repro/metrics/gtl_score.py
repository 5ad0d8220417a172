"""The paper's GTL metrics (Section 3.1).

Given net cut ``T(C)``, Rent exponent ``p``, netlist-average pin count
``A_G`` and group-average pin count ``A_C``:

* ``GTL-S(C)  = T(C) / |C|^p`` — Rent-scaled cut, constant in expectation
  for an "average quality" group of any size;
* ``nGTL-S(C) = T(C) / (A_G * |C|^p)`` — normalized so the average group
  scores ~1 regardless of the netlist's fanin mix;
* ``GTL-SD(C) = T(C) / (A_G * |C|^(p * A_C / A_G))`` — density-aware: the
  exponent is inflated for pin-dense groups (complex gates such as NAND4 /
  OAI / AOI), sharpening the minimum at true GTLs (Fig 3 vs Fig 2).

Scores much smaller than 1 (e.g. < 0.1) indicate strong GTLs.

:class:`ScoreContext` packages the netlist constants so the finder can score
thousands of prefix groups from :class:`~repro.netlist.ops.GroupStats`
without touching the netlist again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.errors import MetricError
from repro.netlist.hypergraph import Netlist
from repro.netlist.ops import GroupStats, PrefixCurves, group_stats


def gtl_score(netlist: Netlist, group: Iterable[int], rent_exponent: float) -> float:
    """``GTL-S(C) = T(C) / |C|^p``."""
    stats = group_stats(netlist, group)
    _check(stats, rent_exponent)
    return stats.cut / stats.size**rent_exponent


def normalized_gtl_score(
    netlist: Netlist, group: Iterable[int], rent_exponent: float
) -> float:
    """``nGTL-S(C) = T(C) / (A_G * |C|^p)``."""
    stats = group_stats(netlist, group)
    _check(stats, rent_exponent)
    return stats.cut / (netlist.average_pins_per_cell * stats.size**rent_exponent)


def density_aware_gtl_score(
    netlist: Netlist, group: Iterable[int], rent_exponent: float
) -> float:
    """``GTL-SD(C) = T(C) / (A_G * |C|^(p * A_C / A_G))``."""
    stats = group_stats(netlist, group)
    _check(stats, rent_exponent)
    a_g = netlist.average_pins_per_cell
    exponent = rent_exponent * stats.avg_pins / a_g
    return stats.cut / (a_g * stats.size**exponent)


def _check(stats: GroupStats, rent_exponent: float) -> None:
    if stats.size < 1:
        raise MetricError("GTL score of an empty group")
    if not 0 < rent_exponent <= 2:
        raise MetricError(f"implausible Rent exponent {rent_exponent}")


@dataclass(frozen=True)
class ScoreContext:
    """Frozen netlist constants needed to score a group from its stats.

    Attributes:
        rent_exponent: estimated Rent exponent ``p`` of the netlist.
        avg_pins_per_cell: ``A_G``.
        metric: which score :meth:`score` evaluates — ``"gtl_s"``,
            ``"ngtl_s"`` (default) or ``"gtl_sd"``.
    """

    rent_exponent: float
    avg_pins_per_cell: float
    metric: str = "ngtl_s"

    VALID_METRICS = ("gtl_s", "ngtl_s", "gtl_sd")

    def __post_init__(self) -> None:
        if self.metric not in self.VALID_METRICS:
            raise MetricError(
                f"unknown metric {self.metric!r}; expected one of {self.VALID_METRICS}"
            )
        if not 0 < self.rent_exponent <= 2:
            raise MetricError(f"implausible Rent exponent {self.rent_exponent}")
        if self.avg_pins_per_cell <= 0:
            raise MetricError("avg_pins_per_cell must be positive")

    @classmethod
    def for_netlist(
        cls, netlist: Netlist, rent_exponent: float, metric: str = "ngtl_s"
    ) -> "ScoreContext":
        """Build a context with ``A_G`` taken from ``netlist``.

        Contexts are frozen and depend only on ``(netlist, rent_exponent,
        metric)``, so they are memoized on the netlist's derived-object
        cache — re-scoring many candidates of one netlist reuses one
        instance per exponent/metric pair.
        """
        return netlist.derived(
            ("score_context", rent_exponent, metric),
            lambda: cls(
                rent_exponent=rent_exponent,
                avg_pins_per_cell=netlist.average_pins_per_cell,
                metric=metric,
            ),
        )

    def score(self, stats: GroupStats) -> float:
        """Score a group from its :class:`GroupStats` (lower = more tangled)."""
        if stats.size < 1:
            raise MetricError("score of an empty group")
        if self.metric == "gtl_s":
            return stats.cut / stats.size**self.rent_exponent
        if self.metric == "ngtl_s":
            denominator = self.avg_pins_per_cell * stats.size**self.rent_exponent
            return stats.cut / denominator
        exponent = self.rent_exponent * stats.avg_pins / self.avg_pins_per_cell
        return stats.cut / (self.avg_pins_per_cell * stats.size**exponent)

    def score_curves(self, curves: PrefixCurves) -> np.ndarray:
        """Score every prefix of a :class:`~repro.netlist.ops.PrefixCurves`.

        Vectorized counterpart of :meth:`score` over the array form of an
        ordering's prefixes; agrees with the scalar scores to float64
        rounding (well below 1e-9).
        """
        sizes = curves.sizes.astype(np.float64)
        cuts = curves.cuts.astype(np.float64)
        if self.metric == "gtl_s":
            return cuts / sizes**self.rent_exponent
        if self.metric == "ngtl_s":
            return cuts / (self.avg_pins_per_cell * sizes**self.rent_exponent)
        exponents = self.rent_exponent * curves.avg_pins / self.avg_pins_per_cell
        return cuts / (self.avg_pins_per_cell * sizes**exponents)
