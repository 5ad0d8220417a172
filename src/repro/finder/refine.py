"""Phase III (first half) — GTL refinement (Section 3.2.3 / III.1-III.13).

A candidate grown from a random seed can be slightly off (e.g. the seed sat
on the boundary of the true structure).  For each initial candidate ``B_i``
we re-grow ``refine_count`` orderings from random cells *inside* ``B_i``,
collect the resulting candidates, and build a genetic family from all pairs:
unions, intersections and both set differences.  The family member with the
best (lowest) score becomes the refined candidate.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

from repro.finder.candidate import CandidateGTL, extract_candidate
from repro.finder.config import FinderConfig
from repro.finder.ordering import grow_linear_ordering
from repro.metrics.gtl_score import ScoreContext
from repro.netlist.hypergraph import Netlist
from repro.netlist.ops import group_connected, group_stats
from repro.obs import trace
from repro.utils.rng import RngLike, ensure_rng


def score_group(
    netlist: Netlist,
    cells: Iterable[int],
    context: ScoreContext,
    backend: Optional[str] = None,
) -> Optional[float]:
    """Score an arbitrary cell set; ``None`` for empty sets.

    Group statistics are integers in both backends, so the score is
    bit-identical regardless of ``backend``.
    """
    members = cells if isinstance(cells, (set, frozenset)) else set(cells)
    if not members:
        return None
    return context.score(group_stats(netlist, members, backend=backend))


def is_connected_group(
    netlist: Netlist, cells: Iterable[int], backend: Optional[str] = None
) -> bool:
    """True when ``cells`` induce one connected hypergraph component.

    A GTL is a single logic structure; set operations in the genetic family
    can glue together unrelated tangled blocks (whose union may score even
    better under the density-aware metric) or tear a candidate apart, so
    disconnected family members are rejected.  Delegates to
    :func:`repro.netlist.ops.group_connected` (CSR frontier BFS on the
    array backend).
    """
    return group_connected(netlist, cells, backend=backend)


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
    backend: Optional[str] = None,
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
        backend: array kernel or scalar reference for the re-grown
            orderings, family scoring and connectivity checks.
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
            backend=backend,
        )
        if touched is not None:
            touched.update(ordering)
        regrown = extract_candidate(
            netlist,
            ordering,
            config,
            seed=reseed,
            rent_exponent=rent_exponent,
            backend=backend,
        )
        if tracing:
            trace.histogram("finder.phase3.regrow_s").observe(trace.clock() - began)
        if regrown is not None:
            sets.append(regrown.cells)

    began = trace.clock() if tracing else 0.0
    best_cells = candidate.cells
    best_score = score_group(netlist, candidate.cells, context, backend=backend)
    for member in genetic_family(sets):
        if len(member) < config.min_gtl_size:
            continue
        score = score_group(netlist, member, context, backend=backend)
        if score is None or (best_score is not None and score >= best_score):
            continue
        if member != candidate.cells and not is_connected_group(
            netlist, member, backend=backend
        ):
            continue
        best_score = score
        best_cells = member
    if tracing:
        trace.histogram("finder.phase3.family_s").observe(trace.clock() - began)

    stats = group_stats(netlist, best_cells, backend=backend)
    return CandidateGTL(
        cells=frozenset(best_cells),
        score=float(best_score),
        stats=stats,
        rent_exponent=rent_exponent,
        seed=candidate.seed,
    )
