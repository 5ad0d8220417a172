"""Phase III (first half) — GTL refinement (Section 3.2.3 / III.1-III.13).

A candidate grown from a random seed can be slightly off (e.g. the seed sat
on the boundary of the true structure).  For each initial candidate ``B_i``
we re-grow ``refine_count`` orderings from random cells *inside* ``B_i``,
collect the resulting candidates, and build a genetic family from all pairs:
unions, intersections and both set differences.  The family member with the
best (lowest) score becomes the refined candidate.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.finder.candidate import CandidateGTL, extract_candidate
from repro.finder.config import FinderConfig
from repro.finder.ordering import grow_linear_ordering
from repro.metrics.gtl_score import ScoreContext
from repro.netlist.hypergraph import Netlist
from repro.netlist.ops import group_connected, group_stats
from repro.obs import trace
from repro.utils.rng import RngLike, ensure_rng


def genetic_family(sets: List[frozenset]) -> List[frozenset]:
    """All unions / intersections / differences of the pairs in ``sets``.

    Mirrors steps III.4-III.12: the family contains the originals plus, for
    every unordered pair (Zi, Zj): their union, intersection and the two
    differences.  Empty and duplicate members are dropped.
    """
    family: List[frozenset] = []
    seen: Set[frozenset] = set()

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


def refine_candidate(
    netlist: Netlist,
    candidate: CandidateGTL,
    config: FinderConfig,
    rent_exponent: float,
    rng: RngLike = None,
    touched: Optional[Set[int]] = None,
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
        touched: when given, every cell absorbed by a re-grown ordering is
            added to this set — the caller's footprint accounting (family
            members are subsets of the orderings, so the orderings alone
            bound the refinement's read-set).
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
        ordering = grow_linear_ordering(
            netlist,
            reseed,
            max_length,
            lambda_skip=config.lambda_skip,
            exclude_fixed=config.exclude_fixed,
        )
        if touched is not None:
            touched.update(ordering)
        regrown = extract_candidate(
            netlist,
            ordering,
            config,
            seed=reseed,
            rent_exponent=rent_exponent,
        )
        if tracing:
            trace.histogram("finder.phase3.regrow_s").observe(trace.clock() - began)
        if regrown is not None:
            sets.append(regrown.cells)

    began = trace.clock() if tracing else 0.0
    # Family members are non-empty (genetic_family drops empty sets).  A
    # GTL is a single logic structure: set operations can glue unrelated
    # tangled blocks together (whose union may score even better under the
    # density-aware metric) or tear a candidate apart, so disconnected
    # members are rejected.
    best_cells = candidate.cells
    best_stats = group_stats(netlist, best_cells)
    best_score = context.score(best_stats)
    for member in genetic_family(sets):
        if len(member) < config.min_gtl_size:
            continue
        stats = group_stats(netlist, member)
        score = context.score(stats)
        if score >= best_score:
            continue
        if member != candidate.cells and not group_connected(netlist, member):
            continue
        best_score = score
        best_cells = member
        best_stats = stats
    if tracing:
        trace.histogram("finder.phase3.family_s").observe(trace.clock() - began)

    return CandidateGTL(
        cells=frozenset(best_cells),
        score=float(best_score),
        stats=best_stats,
        rent_exponent=rent_exponent,
        seed=candidate.seed,
    )
