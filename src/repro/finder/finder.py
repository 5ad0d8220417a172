"""The full tangled-logic finder pipeline (Algorithm, Chapter IV).

Each random seed runs Phases I-III independently — the paper exploits this
with 8 pthreads.  Every detection has the same shape: plan the
``(seed_cell, rng_seed)`` jobs (:func:`plan_seed_jobs`), run them, reduce
the per-seed outcomes into a report.  :func:`run_seed_plan` is the one
place that runs and reduces: it takes the planned jobs, an optional
:class:`repro.service.pool.WorkerPool` (a thread pool in this process;
``None`` runs the seeds serially) and the outcomes already known by job
index, runs only the jobs without one and returns the report with the
full outcome list.  A cold run (:meth:`TangledLogicFinder.run`,
:func:`repro.incremental.engine.run_traced`) knows no outcome; an
incremental patch knows every seed its edit could not reach.
Parallelism is the pool's choice, never the config's: the report is
identical either way.  Batch drivers (:class:`repro.service.jobs.BatchRunner`)
keep one persistent pool so many detections share one set of seed threads.

Rent-exponent handling: Phase II estimates a Rent exponent per ordering (the
paper's estimator) from the same single prefix scan that yields the
candidate, on either kernel backend (``REPRO_SCALAR_BACKEND``, see
:mod:`repro.netlist.backend`; each phase resolves it itself).  The finder
averages those into a netlist-level exponent and re-scores every refined
candidate with it before pruning, so overlapping candidates from different
seeds are compared on one consistent scale.
"""

from __future__ import annotations

import logging
import math
from typing import TYPE_CHECKING, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import FinderError
from repro.finder.candidate import CandidateGTL, extract_candidate_and_rent
from repro.finder.config import DEFAULT_RENT_EXPONENT, FinderConfig
from repro.finder.ordering import grow_with_curves
from repro.finder.prune import prune_overlapping
from repro.finder.refine import refine_candidate
from repro.finder.result import GTL, FinderReport
from repro.metrics.gtl_score import ScoreContext
from repro.netlist.backend import resolve_backend
from repro.netlist.hypergraph import Netlist
from repro.obs import trace
from repro.utils.rng import ensure_rng
from repro.utils.timer import Timer

if TYPE_CHECKING:  # import cycle: service.pool executes this module's seeds
    from repro.service.pool import WorkerPool

logger = logging.getLogger(__name__)

# One seed's outcome: (refined candidate or None, ordering Rent estimate,
# number of orderings grown, footprint).  The footprint is the sorted,
# read-only int64 array of every cell absorbed by any ordering this seed
# grew (Phase I plus the refinement re-growths); it is the seed's read-set
# over the netlist, so an edit whose dirty region (see
# :mod:`repro.incremental.dirty`) misses the footprint cannot change the
# outcome — the invariant incremental detection's reuse rests on.
_SeedOutcome = Tuple[Optional[CandidateGTL], float, int, np.ndarray]


def _footprint(
    netlist: Netlist, orderings: Sequence[Sequence[int]]
) -> np.ndarray:
    """Sorted read-only array of every cell in any of ``orderings``."""
    absorbed = np.zeros(netlist.num_cells, dtype=bool)
    for ordering in orderings:
        absorbed[np.asarray(ordering, dtype=np.int64)] = True
    footprint = np.flatnonzero(absorbed)
    footprint.flags.writeable = False
    return footprint


def _process_seed(
    netlist: Netlist, config: FinderConfig, seed_cell: int, rng_seed: int
) -> _SeedOutcome:
    """Run Phases I-III for one seed cell (independent unit of work).

    Phase II scans the ordering once and returns its Rent estimate with
    the candidate: a seed without a candidate still contributes the
    estimate to the global average, or NaN when the ordering has no usable
    prefix, so it is *excluded* from the average instead of dragging it
    toward the assumed 0.6 (when every ordering is unusable the finder
    flags ``rent_fallback``).  Both kernel backends (see
    :mod:`repro.netlist.backend`) produce identical outcomes.
    """
    max_length = config.resolve_order_length(netlist.num_cells)
    with trace.span("finder.seed", seed=seed_cell, backend=resolve_backend()):
        trace.counter("finder.seeds").add(1)
        with trace.span("finder.phase1"):
            ordering, curves = grow_with_curves(
                netlist,
                seed_cell,
                max_length,
                lambda_skip=config.lambda_skip,
                exclude_fixed=config.exclude_fixed,
            )
        touched = [ordering]
        with trace.span("finder.phase2"):
            candidate, rent = extract_candidate_and_rent(
                netlist, ordering, config, seed=seed_cell, curves=curves
            )
        if candidate is None:
            return None, rent, 1, _footprint(netlist, touched)
        trace.counter("finder.candidates").add(1)

        with trace.span("finder.phase3"):
            refined = refine_candidate(
                netlist,
                candidate,
                config,
                rent_exponent=candidate.rent_exponent,
                rng=rng_seed,
                touched=touched,
            )
        return (
            refined,
            candidate.rent_exponent,
            1 + config.refine_count,
            _footprint(netlist, touched),
        )


def _draw_seed_cells(netlist: Netlist, config: FinderConfig) -> List[int]:
    from repro.finder.seeding import draw_seeds

    if config.exclude_fixed:
        eligible = netlist.movable_cells()
    else:
        eligible = list(range(netlist.num_cells))
    if not eligible:
        raise FinderError("no eligible seed cells (all cells fixed?)")
    return draw_seeds(
        netlist,
        eligible,
        config.num_seeds,
        strategy=config.seed_strategy,
        rng=ensure_rng(config.seed),
    )


def plan_seed_jobs(
    netlist: Netlist, config: FinderConfig
) -> List[Tuple[int, int]]:
    """The ``(seed_cell, rng_seed)`` job list one :meth:`run` would execute.

    Deterministic for a pinned ``config.seed``.  Exposed so incremental
    detection can re-plan the jobs on an edited netlist and match them
    index-by-index against a recorded trace.
    """
    if netlist.num_cells < 2:
        raise FinderError("netlist too small for GTL detection")
    seed_cells = _draw_seed_cells(netlist, config)
    rng = ensure_rng(config.seed)
    return [(cell, rng.randrange(2**63)) for cell in seed_cells]


def _rescore(
    netlist: Netlist, config: FinderConfig, candidate: CandidateGTL, rent: float
) -> CandidateGTL:
    context = ScoreContext.for_netlist(netlist, rent, metric=config.metric)
    stats = candidate.stats
    return CandidateGTL(
        cells=candidate.cells,
        score=context.score(stats),
        stats=stats,
        rent_exponent=rent,
        seed=candidate.seed,
    )


def _to_gtl(netlist: Netlist, candidate: CandidateGTL) -> GTL:
    # The candidate comes out of _rescore, whose stats already describe
    # exactly candidate.cells — no need to recompute them per kept group.
    stats = candidate.stats
    rent = candidate.rent_exponent
    ngtl = ScoreContext.for_netlist(netlist, rent, metric="ngtl_s")
    gtl_sd = ScoreContext.for_netlist(netlist, rent, metric="gtl_sd")
    return GTL(
        cells=candidate.cells,
        size=stats.size,
        cut=stats.cut,
        ngtl_score=ngtl.score(stats),
        gtl_sd_score=gtl_sd.score(stats),
        score=candidate.score,
        seed=candidate.seed,
        rent_exponent=rent,
    )


def reduce_outcomes(
    netlist: Netlist, config: FinderConfig, outcomes: Sequence[_SeedOutcome]
) -> Tuple[Tuple[GTL, ...], float, int, int, bool]:
    """The finder's reduce step over per-seed outcomes.

    Returns ``(gtls, global_rent, num_candidates, num_orderings,
    rent_fallback)``.  Pure in its inputs, so a merge of known and freshly
    run outcomes reduces to the same report a cold run would.
    """
    with trace.span("finder.reduce"):
        candidates = [c for c, _, _, _ in outcomes if c is not None]
        rents = [p for _, p, _, _ in outcomes if math.isfinite(p)]
        orderings = sum(n for _, _, n, _ in outcomes)
        rent_fallback = not rents
        if rent_fallback:
            global_rent = DEFAULT_RENT_EXPONENT
            logger.warning(
                "no ordering yielded a usable Rent estimate; assuming "
                "default exponent p=%.2f",
                DEFAULT_RENT_EXPONENT,
            )
        else:
            global_rent = sum(rents) / len(rents)

        rescored = [_rescore(netlist, config, c, global_rent) for c in candidates]
        kept = prune_overlapping(rescored, netlist=netlist)
        gtls = tuple(_to_gtl(netlist, c) for c in kept)
    return gtls, global_rent, len(candidates), orderings, rent_fallback


def run_seed_plan(
    netlist: Netlist,
    config: FinderConfig,
    jobs: Sequence[Tuple[int, int]],
    pool: Optional["WorkerPool"] = None,
    known: Optional[Mapping[int, _SeedOutcome]] = None,
) -> Tuple[FinderReport, List[_SeedOutcome]]:
    """Run the planned seed jobs and reduce them: the finder's one seed path.

    Args:
        jobs: the ``(seed_cell, rng_seed)`` plan (:func:`plan_seed_jobs`).
        pool: a :class:`repro.service.pool.WorkerPool` to run the seed
            trials on; ``None`` runs them serially in this process.
        known: outcomes already known, by job index; only the other jobs
            run.  A cold run knows none, an incremental patch every seed
            its edit could not reach.

    Returns the report and the outcome of every job, in job order.
    """
    known = known or {}
    outcomes: List[Optional[_SeedOutcome]] = [known.get(i) for i in range(len(jobs))]
    todo = [i for i, outcome in enumerate(outcomes) if outcome is None]
    with Timer() as timer, trace.span(
        "finder.run", seeds=len(jobs), known=len(known)
    ):
        todo_jobs = [jobs[i] for i in todo]
        if pool is not None:
            fresh = pool.run_seed_jobs(netlist, config, todo_jobs)
        else:
            fresh = [_process_seed(netlist, config, *job) for job in todo_jobs]
        for index, outcome in zip(todo, fresh):
            outcomes[index] = outcome
        gtls, global_rent, num_candidates, orderings, rent_fallback = (
            reduce_outcomes(netlist, config, outcomes)
        )

    report = FinderReport(
        gtls=gtls,
        config=config,
        rent_exponent=global_rent,
        num_orderings=orderings,
        num_candidates=num_candidates,
        runtime_seconds=timer.elapsed,
        rent_fallback=rent_fallback,
    )
    return report, outcomes


class TangledLogicFinder:
    """Finds all groups of tangled logic in a netlist.

    >>> from repro.generators import planted_gtl_graph
    >>> netlist, truth = planted_gtl_graph(2000, [200], seed=1)
    >>> report = TangledLogicFinder(netlist, FinderConfig(num_seeds=8, seed=1)).run()
    >>> report.num_gtls >= 1
    True
    """

    def __init__(self, netlist: Netlist, config: Optional[FinderConfig] = None):
        if netlist.num_cells < 2:
            raise FinderError("netlist too small for GTL detection")
        self.netlist = netlist
        self.config = config or FinderConfig()

    # ------------------------------------------------------------------
    def run(self, pool: Optional["WorkerPool"] = None) -> FinderReport:
        """Execute Phases I-III for all seeds and return the report.

        Args:
            pool: a :class:`repro.service.pool.WorkerPool` to run the seed
                trials on; ``None`` runs them serially in this process.
        """
        jobs = plan_seed_jobs(self.netlist, self.config)
        report, _ = run_seed_plan(self.netlist, self.config, jobs, pool)
        return report


def find_tangled_logic(
    netlist: Netlist, config: Optional[FinderConfig] = None, **overrides
) -> FinderReport:
    """One-call convenience API.

    ``overrides`` are applied on top of ``config`` (or the defaults), e.g.
    ``find_tangled_logic(netlist, num_seeds=100, seed=42)``.
    """
    base = config or FinderConfig()
    if overrides:
        base = base.with_overrides(**overrides)
    return TangledLogicFinder(netlist, base).run()
