"""Score-versus-group-size curves (Figures 2, 3 and 5).

The paper illustrates its metrics by growing a cell agglomeration from a
seed and plotting the metric of every prefix against the prefix size.  A
seed inside a GTL produces a deep minimum at the GTL boundary; a seed
outside produces a flat curve that approaches ~1 (nGTL-Score) — while ratio
cut decreases monotonically, which is Fig 5's point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.finder.candidate import scan_ordering
from repro.finder.ordering import grow_linear_ordering
from repro.metrics.gtl_score import ScoreContext
from repro.metrics.rent import estimate_rent_exponent_from_prefixes
from repro.netlist.hypergraph import Netlist


@dataclass(frozen=True)
class MetricCurve:
    """One metric-versus-prefix-size series.

    Attributes:
        label: series name (e.g. ``"nGTL-S (seed inside GTL)"``).
        sizes: prefix sizes |C_k|.
        values: metric values at each size.
        rent_exponent: exponent used for GTL scores (0 for ratio cut).
    """

    label: str
    sizes: Tuple[int, ...]
    values: Tuple[float, ...]
    rent_exponent: float = 0.0

    @property
    def minimum(self) -> Tuple[int, float]:
        """``(size, value)`` at the global minimum of the curve."""
        index = min(range(len(self.values)), key=lambda i: self.values[i])
        return self.sizes[index], self.values[index]


def agglomeration_curve(
    netlist: Netlist,
    seed_cell: int,
    max_length: int,
    metric: str = "ngtl_s",
    label: Optional[str] = None,
    rent_exponent: Optional[float] = None,
    min_prefix: int = 2,
) -> MetricCurve:
    """Grow an ordering from ``seed_cell`` and score every prefix.

    Reproduces one curve of Figure 2 (``metric="ngtl_s"``) or Figure 3
    (``metric="gtl_sd"``).
    """
    ordering = grow_linear_ordering(netlist, seed_cell, max_length)
    prefix_stats = scan_ordering(netlist, ordering)
    if rent_exponent is None:
        rent_exponent = estimate_rent_exponent_from_prefixes(prefix_stats)
    context = ScoreContext.for_netlist(netlist, rent_exponent, metric=metric)
    sizes = []
    values = []
    for stats in prefix_stats:
        if stats.size < min_prefix:
            continue
        sizes.append(stats.size)
        values.append(context.score(stats))
    return MetricCurve(
        label=label or metric,
        sizes=tuple(sizes),
        values=tuple(values),
        rent_exponent=rent_exponent,
    )


def metric_comparison_curves(
    netlist: Netlist,
    seed_cell: int,
    max_length: int,
    min_prefix: int = 2,
) -> List[MetricCurve]:
    """nGTL-S, GTL-SD and ratio-cut curves over one ordering (Figure 5).

    All three series share a single Phase I linear ordering, exactly as the
    paper extracts them.
    """
    ordering = grow_linear_ordering(netlist, seed_cell, max_length)
    prefix_stats = scan_ordering(netlist, ordering)
    rent = estimate_rent_exponent_from_prefixes(prefix_stats)
    ngtl = ScoreContext.for_netlist(netlist, rent, metric="ngtl_s")
    gtl_sd = ScoreContext.for_netlist(netlist, rent, metric="gtl_sd")

    sizes: List[int] = []
    ngtl_values: List[float] = []
    sd_values: List[float] = []
    rc_values: List[float] = []
    for stats in prefix_stats:
        if stats.size < min_prefix:
            continue
        sizes.append(stats.size)
        ngtl_values.append(ngtl.score(stats))
        sd_values.append(gtl_sd.score(stats))
        rc_values.append(stats.cut / stats.size)
    return [
        MetricCurve("nGTL-S", tuple(sizes), tuple(ngtl_values), rent),
        MetricCurve("GTL-SD", tuple(sizes), tuple(sd_values), rent),
        MetricCurve("ratio-cut", tuple(sizes), tuple(rc_values), 0.0),
    ]
