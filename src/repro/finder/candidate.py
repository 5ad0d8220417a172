"""Phase II — initial candidate GTL generation (Section 3.2.2 / II.1-II.4).

Every prefix ``C_k`` of a linear ordering is scored with a GTL metric; the
prefix at the *clear minimum* of the score-versus-k curve becomes the
candidate.  The Rent exponent used by the scores is estimated from the same
ordering by averaging the per-prefix estimate
``(ln T(C) - ln A_C) / ln |C|`` (the paper's estimator).

A minimum qualifies as *clear* when (i) the prefix is at least
``min_gtl_size`` cells, (ii) its score is below ``clear_min_threshold``
(average groups score ~1) and (iii) it occurs before ``boundary_fraction``
of the ordering — a minimum at the right end means the curve was still
descending, which is the ratio-cut failure mode, not a GTL.

Each ordering's prefix statistics are computed once, and both the Rent
estimate and the candidate come from them (:func:`extract_candidate_and_rent`).
On the numpy backend they are the :class:`~repro.netlist.ops.PrefixCurves`
that Phase I hands over with the ordering (the compiled grow kernel records
them while it absorbs cells); only a caller without curves gets a
:func:`scan_ordering_curves` pass.  The scalar reference
(``REPRO_SCALAR_BACKEND=1``, see :mod:`repro.netlist.backend`) runs one
:class:`PrefixScanner` pass.  The two backends select the same prefix and
agree on scores and estimates to float64 rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import FinderError
from repro.finder.config import DEFAULT_RENT_EXPONENT, FinderConfig
from repro.metrics.gtl_score import ScoreContext
from repro.metrics.rent import (
    estimate_rent_exponent_from_curves,
    estimate_rent_exponent_from_prefixes,
)
from repro.netlist.backend import resolve_backend
from repro.netlist.hypergraph import Netlist
from repro.netlist.ops import (
    GroupStats,
    PrefixCurves,
    PrefixScanner,
    scan_ordering_curves,
)
from repro.obs import trace


@dataclass(frozen=True)
class CandidateGTL:
    """A candidate produced by Phase II.

    Attributes:
        cells: the member cells (frozen).
        score: value of the configured metric at the minimum.
        stats: group statistics at the minimum.
        rent_exponent: the ordering-local Rent exponent used for scoring.
        seed: the seed cell the ordering was grown from.
    """

    cells: frozenset
    score: float
    stats: GroupStats
    rent_exponent: float
    seed: int

    @property
    def size(self) -> int:
        """|C| of the candidate."""
        return len(self.cells)


def _scan_prefixes(netlist: Netlist, ordering: Sequence[int]) -> List[GroupStats]:
    """Scalar-reference prefix scan: one :class:`PrefixScanner` pass."""
    scanner = PrefixScanner(netlist)
    stats: List[GroupStats] = []
    for cell in ordering:
        scanner.add(cell)
        stats.append(scanner.stats())
    return stats


def scan_ordering(netlist: Netlist, ordering: Sequence[int]) -> List[GroupStats]:
    """Per-prefix :class:`GroupStats` for ``ordering`` (linear total work)."""
    if resolve_backend() == "numpy":
        return scan_ordering_curves(netlist, ordering).stats_list()
    return _scan_prefixes(netlist, ordering)


def extract_candidate_and_rent(
    netlist: Netlist,
    ordering: Sequence[int],
    config: FinderConfig,
    seed: Optional[int] = None,
    rent_exponent: Optional[float] = None,
    curves: Optional[PrefixCurves] = None,
) -> Tuple[Optional[CandidateGTL], float]:
    """Run Phase II on one ordering from its prefix statistics.

    Returns ``(candidate, rent)``: the candidate (``None`` when no clear
    minimum exists) and the ordering's Rent estimate taken from the same
    scan.  ``rent`` is NaN when the ordering has no usable prefix, so the
    finder can leave it out of its average; the candidate itself is then
    scored with :data:`~repro.finder.config.DEFAULT_RENT_EXPONENT`.  An
    ordering shorter than ``min_gtl_size`` has no candidate but still
    yields its estimate.

    Args:
        netlist: host netlist.
        ordering: Phase I linear ordering (seed first).
        config: finder configuration (metric, thresholds).
        seed: seed cell recorded on the candidate (defaults to
            ``ordering[0]``).
        rent_exponent: force a Rent exponent instead of estimating it from
            the ordering (used by Phase III so a candidate family is scored
            consistently); it is returned as ``rent``.
        curves: the ordering's prefix curves when the caller already has
            them (:func:`~repro.finder.ordering.grow_with_curves`); the
            numpy backend scans the ordering only without them.
    """
    if len(ordering) == 0:
        raise FinderError("extract_candidate on an empty ordering")
    if seed is None:
        seed = int(ordering[0])
    too_short = len(ordering) < config.min_gtl_size
    if too_short and rent_exponent is not None:
        return None, rent_exponent

    # One set of prefix statistics per ordering on either backend: the
    # array curves or the scalar reference's per-prefix stats.
    # ``fallback=None`` tells an ordering without usable prefixes apart
    # from any real estimate.
    on_arrays = resolve_backend() == "numpy"
    if on_arrays:
        if curves is None:
            trace.counter("finder.curve_scans").add(1)
            curves = scan_ordering_curves(netlist, ordering)
        prefixes = curves
        estimate_rent = estimate_rent_exponent_from_curves
    else:
        prefixes = _scan_prefixes(netlist, ordering)
        estimate_rent = estimate_rent_exponent_from_prefixes
    estimate = rent_exponent
    if estimate is None:
        estimate = estimate_rent(
            prefixes, min_size=config.rent_min_prefix, fallback=None
        )
    rent = float("nan") if estimate is None else estimate
    if too_short:
        return None, rent
    if estimate is None:
        estimate = DEFAULT_RENT_EXPONENT

    context = ScoreContext.for_netlist(netlist, estimate, metric=config.metric)
    lower = config.min_gtl_size - 1
    if on_arrays:
        scores = context.score_curves(prefixes)
        # np.argmin takes the first occurrence of the minimum — the same
        # prefix the scalar strict-< scan selects.
        best_index = lower + int(np.argmin(scores[lower:]))
        best_score = float(scores[best_index])
        stats_at_best = prefixes.stats_at(best_index)
    else:
        best_index = -1
        best_score = float("inf")
        for index in range(lower, len(ordering)):
            score = context.score(prefixes[index])
            if score < best_score:
                best_score = score
                best_index = index
        if best_index < 0:
            return None, rent
        stats_at_best = prefixes[best_index]

    if best_score >= config.clear_min_threshold:
        return None, rent  # no clear minimum: curve never dips below threshold
    boundary = int(config.boundary_fraction * len(ordering))
    if best_index + 1 > boundary:
        return None, rent  # minimum at the right end: still descending

    cells = ordering[: best_index + 1]
    candidate = CandidateGTL(
        cells=frozenset(cells.tolist() if isinstance(cells, np.ndarray) else cells),
        score=best_score,
        stats=stats_at_best,
        rent_exponent=estimate,
        seed=seed,
    )
    return candidate, rent


def extract_candidate(
    netlist: Netlist,
    ordering: Sequence[int],
    config: FinderConfig,
    seed: Optional[int] = None,
    rent_exponent: Optional[float] = None,
    curves: Optional[PrefixCurves] = None,
) -> Optional[CandidateGTL]:
    """Run Phase II on one ordering; ``None`` when no clear minimum exists.

    :func:`extract_candidate_and_rent` without the ordering's Rent
    estimate; both backends select the same prefix, and scores agree to
    float64 rounding.
    """
    return extract_candidate_and_rent(
        netlist, ordering, config, seed=seed, rent_exponent=rent_exponent,
        curves=curves,
    )[0]
