"""Phase III (first half) — GTL refinement (Section 3.2.3 / III.1-III.13).

A candidate grown from a random seed can be slightly off (e.g. the seed sat
on the boundary of the true structure).  For each initial candidate ``B_i``
we re-grow ``refine_count`` orderings from random cells *inside* ``B_i``,
collect the resulting candidates, and build a genetic family from all pairs:
unions, intersections and both set differences.  The connected family
member with the best (lowest) score becomes the refined candidate.

Scoring the family has two implementations that pick the same member with
the same statistics (see :mod:`repro.netlist.backend`):

* the scalar reference builds every member with :func:`genetic_family` and
  computes its :func:`~repro.netlist.ops.group_stats`;
* the numpy backend's signature pass (:func:`_best_member_signatures`)
  never builds a member it does not return.  Each cell of the union of the
  ``k`` base sets gets a ``k``-bit signature (which base sets hold it);
  every member is a predicate on signatures, so its size and pins follow
  from per-signature totals, and its per-net inside counts from the pin
  counts of each base set and of each pairwise intersection
  (``|A u B| = a + b - c``, ``|A - B| = a - c``): ``k + k(k-1)/2``
  columns, never a ``2^k`` table.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.finder.candidate import CandidateGTL, extract_candidate
from repro.finder.config import FinderConfig
from repro.finder.ordering import grow_with_curves
from repro.metrics.gtl_score import ScoreContext
from repro.netlist.backend import resolve_backend
from repro.netlist.hypergraph import Netlist
from repro.netlist.ops import GroupStats, group_connected, group_stats
from repro.obs import trace
from repro.utils.rng import RngLike, ensure_rng

#: The best member, its statistics and its score.
_Best = Tuple[frozenset, GroupStats, float]


def genetic_family(sets: List[frozenset]) -> List[frozenset]:
    """All unions / intersections / differences of the pairs in ``sets``.

    Mirrors steps III.4-III.12: the family contains the originals plus, for
    every unordered pair (Zi, Zj): their union, intersection and the two
    differences.  Empty and duplicate members are dropped.
    """
    family: List[frozenset] = []
    seen = set()

    def admit(member: frozenset) -> None:
        if member and member not in seen:
            seen.add(member)
            family.append(member)

    for member in sets:
        admit(frozenset(member))
    for i, zi in enumerate(sets):
        for zj in sets[i + 1 :]:
            intersection = zi & zj
            admit(zi | zj)
            admit(intersection)
            admit(zi - intersection)
            admit(zj - intersection)
    return family


def _family_plan(k: int) -> List[Tuple[str, int, int]]:
    """The members of :func:`genetic_family` over ``k`` base sets, in its
    order and before deduplication: ``(operation, i, j)``."""
    plan = [("set", i, i) for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            plan += [("union", i, j), ("inter", i, j), ("minus", i, j), ("minus", j, i)]
    return plan


def _best_member_sets(
    netlist: Netlist, sets: List[frozenset], context: ScoreContext, min_size: int
) -> _Best:
    """Scalar reference: score every :func:`genetic_family` member.

    A GTL is a single logic structure: set operations can glue unrelated
    tangled blocks together (whose union may score even better under the
    density-aware metric) or tear a candidate apart, so disconnected
    members are rejected.
    """
    best_cells = sets[0]
    best_stats = group_stats(netlist, best_cells)
    best_score = context.score(best_stats)
    for member in genetic_family(sets):
        if len(member) < min_size:
            continue
        stats = group_stats(netlist, member)
        score = context.score(stats)
        if score >= best_score:
            continue
        if member != sets[0] and not group_connected(netlist, member):
            continue
        best_score = score
        best_cells = member
        best_stats = stats
    return best_cells, best_stats, best_score


def _best_member_signatures(
    netlist: Netlist, sets: List[frozenset], context: ScoreContext, min_size: int
) -> _Best:
    """Array signature pass; picks what :func:`_best_member_sets` picks.

    Members are deduplicated (and empty ones dropped) by their predicate
    on the signatures present.  Every member of at least ``min_size``
    cells that scores strictly below ``sets[0]`` qualifies; they are
    visited in (score, family index) order and the first connected one
    wins, which is the member the reference's greedy loop keeps.
    """
    from repro.netlist.arrays import gather_segments

    arrays = netlist.arrays
    k = len(sets)
    bases = [np.fromiter(base, dtype=np.int64, count=len(base)) for base in sets]
    in_union = np.zeros(netlist.num_cells, dtype=bool)
    for base in bases:
        in_union[base] = True
    cells = np.flatnonzero(in_union)
    position = np.cumsum(in_union) - 1
    held = np.zeros((k, cells.size), dtype=bool)  # held[i]: cell in sets[i]
    for i, base in enumerate(bases):
        held[i, position[base]] = True
    # Number the signatures present one base set at a time: ``signature_of``
    # stays a dense id below the number of distinct signatures so far, so
    # no id overflows however large ``k`` is.
    signatures = np.zeros((1, 0), dtype=bool)
    signature_of = np.zeros(cells.size, dtype=np.int64)
    for i in range(k):
        code = 2 * signature_of + held[i]
        present = np.zeros(2 * len(signatures), dtype=bool)
        present[code] = True
        codes = np.flatnonzero(present)
        signatures = np.column_stack((signatures[codes // 2], codes % 2 == 1))
        signature_of = (np.cumsum(present) - 1)[code]
    signature_cells = np.bincount(signature_of, minlength=len(signatures))
    signature_pins = np.zeros(len(signatures), dtype=np.int64)
    np.add.at(signature_pins, signature_of, arrays.pin_counts[cells])

    starts = arrays.cell_ptr[cells]
    lengths = arrays.cell_ptr[cells + 1] - starts
    incident = gather_segments(arrays.cell_nets, starts, lengths)
    touched = np.zeros(arrays.num_nets, dtype=bool)
    touched[incident] = True
    nets = np.flatnonzero(touched)
    net_of_pin = (np.cumsum(touched) - 1)[incident]
    degrees = arrays.net_degrees[nets]
    pin_held = held[:, np.repeat(np.arange(cells.size), lengths)]
    inside = [
        np.bincount(net_of_pin[pin_held[i]], minlength=nets.size) for i in range(k)
    ]
    both: Dict[Tuple[int, int], np.ndarray] = {}

    def shared(i: int, j: int) -> np.ndarray:
        """Per-net pins of the intersection of base sets ``i`` and ``j``."""
        key = (min(i, j), max(i, j))
        if key not in both:
            both[key] = np.bincount(
                net_of_pin[pin_held[i] & pin_held[j]], minlength=nets.size
            )
        return both[key]

    seen = set()
    qualifying = []
    best: Optional[_Best] = None
    for operation, i, j in _family_plan(k):
        if operation == "set":
            mask = signatures[:, i]
        elif operation == "union":
            mask = signatures[:, i] | signatures[:, j]
        elif operation == "inter":
            mask = signatures[:, i] & signatures[:, j]
        else:
            mask = signatures[:, i] & ~signatures[:, j]
        key = mask.tobytes()
        if key in seen or not mask.any():
            continue
        seen.add(key)
        size = int(signature_cells[mask].sum())
        if best is not None and size < min_size:
            continue
        if operation == "set":
            count = inside[i]
        elif operation == "union":
            count = inside[i] + inside[j] - shared(i, j)
        elif operation == "inter":
            count = shared(i, j)
        else:
            count = inside[i] - shared(i, j)
        full = count == degrees
        pins = int(signature_pins[mask].sum())
        stats = GroupStats(
            size=size,
            cut=int(np.count_nonzero(count > 0) - np.count_nonzero(full)),
            pins=pins,
            internal_nets=int(np.count_nonzero(full)),
            avg_pins=pins / size,
        )
        score = context.score(stats)
        if best is None:
            best = (sets[0], stats, score)  # the candidate: family member 0
        elif score < best[2]:
            # len(seen) - 1 is the member's index in genetic_family(sets).
            qualifying.append((score, len(seen), mask, stats))

    for score, _, mask, stats in sorted(qualifying, key=lambda entry: entry[:2]):
        group = cells[mask[signature_of]]
        if group_connected(netlist, group):
            return frozenset(group.tolist()), stats, score
    return best


def refine_candidate(
    netlist: Netlist,
    candidate: CandidateGTL,
    config: FinderConfig,
    rent_exponent: float,
    rng: RngLike = None,
    touched: Optional[List[Sequence[int]]] = None,
) -> CandidateGTL:
    """Refine one candidate; returns the best family member as a candidate.

    Args:
        netlist: host netlist.
        candidate: the Phase II candidate ``B_i``.
        config: finder configuration.
        rent_exponent: netlist-level Rent exponent used to score the whole
            family consistently (candidates from different orderings carry
            slightly different local estimates).
        rng: randomness for the interior re-seeds.
        touched: when given, every re-grown ordering is appended to this
            list — the caller's footprint accounting (family members are
            subsets of the orderings, so the orderings alone bound the
            refinement's read-set).
    """
    generator = ensure_rng(rng)
    context = ScoreContext.for_netlist(netlist, rent_exponent, metric=config.metric)

    members = sorted(candidate.cells)
    reseed_count = min(config.refine_count, len(members))
    reseeds = generator.sample(members, reseed_count) if reseed_count else []

    max_length = min(
        config.resolve_order_length(netlist.num_cells),
        max(
            int(config.refine_length_factor * candidate.size),
            config.min_gtl_size + 1,
        ),
    )

    # The split of Phase III is recorded as two latency histograms, one
    # observation per re-growth (ordering plus candidate extraction) and one
    # for family scoring, rather than as child spans: ``finder.phase3``
    # keeps the whole phase as its self time in span-tree reports.
    tracing = trace.enabled()
    sets: List[frozenset] = [candidate.cells]
    for reseed in reseeds:
        began = trace.clock() if tracing else 0.0
        ordering, curves = grow_with_curves(
            netlist,
            reseed,
            max_length,
            lambda_skip=config.lambda_skip,
            exclude_fixed=config.exclude_fixed,
        )
        if touched is not None:
            touched.append(ordering)
        regrown = extract_candidate(
            netlist,
            ordering,
            config,
            seed=reseed,
            rent_exponent=rent_exponent,
            curves=curves,
        )
        if tracing:
            trace.histogram("finder.phase3.regrow_s").observe(trace.clock() - began)
        if regrown is not None:
            sets.append(regrown.cells)

    began = trace.clock() if tracing else 0.0
    if resolve_backend() == "numpy":
        best = _best_member_signatures(netlist, sets, context, config.min_gtl_size)
    else:
        best = _best_member_sets(netlist, sets, context, config.min_gtl_size)
    best_cells, best_stats, best_score = best
    if tracing:
        trace.histogram("finder.phase3.family_s").observe(trace.clock() - began)

    return CandidateGTL(
        cells=frozenset(best_cells),
        score=float(best_score),
        stats=best_stats,
        rent_exponent=rent_exponent,
        seed=candidate.seed,
    )
