"""Parameter-sweep expansion with fingerprint-level deduplication.

A sweep is a cartesian grid of config overrides (e.g. ``lambda_skip x
num_seeds``) applied to a set of designs.  Grids routinely contain redundant
points — a grid value equal to the base config's value, or two axes that
collapse to the same effective config — so the planner deduplicates jobs by
content fingerprint: every distinct ``(netlist, config)`` pair is executed
exactly once and its report is fanned back out to all grid points that
requested it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.errors import FinderError, ServiceError
from repro.finder.config import FinderConfig
from repro.netlist.hypergraph import Netlist
from repro.service.jobs import BatchRunner, DetectionJob, JobResult
from repro.utils.timer import Timer


@dataclass(frozen=True)
class SweepPoint:
    """One cell of the sweep grid.

    Attributes:
        design: label of the design this point runs on.
        overrides: the grid axis values applied at this point (axis -> value).
        job_index: index into :attr:`SweepPlan.jobs` of the deduplicated job
            that answers this point.
    """

    design: str
    overrides: Tuple[Tuple[str, object], ...]
    job_index: int

    def overrides_dict(self) -> Dict[str, object]:
        """The overrides as a plain dict."""
        return dict(self.overrides)


@dataclass
class SweepPlan:
    """Deduplicated execution plan of one sweep.

    Attributes:
        jobs: distinct jobs to execute (one per unique fingerprint).
        points: every grid point, referencing its job by index.
    """

    jobs: List[DetectionJob] = field(default_factory=list)
    points: List[SweepPoint] = field(default_factory=list)

    @property
    def num_deduplicated(self) -> int:
        """Grid points answered by a job another point also requested."""
        return len(self.points) - len(self.jobs)


def expand_grid(
    base: FinderConfig, grid: Mapping[str, Sequence[object]]
) -> List[Tuple[Dict[str, object], FinderConfig]]:
    """Cartesian expansion of ``grid`` over ``base``.

    Returns ``(overrides, config)`` pairs in deterministic order (axes
    sorted by name, values in given order).  Raises :class:`ServiceError`
    for unknown config fields or empty axes; invalid field *values* raise
    the finder's own validation error.
    """
    axes = sorted(grid)
    known = set(FinderConfig.__dataclass_fields__)
    for axis in axes:
        if axis not in known:
            # Same shape as replace_checked's unknown-field error: name the
            # class and list what would have been accepted.
            valid = ", ".join(sorted(known))
            raise ServiceError(
                f"unknown sweep axis {axis!r} (not a FinderConfig field); "
                f"valid fields: {valid}"
            )
        if not grid[axis]:
            raise ServiceError(f"sweep axis {axis!r} has no values")
    combos: List[Tuple[Dict[str, object], FinderConfig]] = []
    for values in itertools.product(*(grid[axis] for axis in axes)):
        overrides = dict(zip(axes, values))
        try:
            config = base.with_overrides(**overrides)
        except FinderError as error:
            raise ServiceError(f"invalid sweep point {overrides}: {error}") from error
        combos.append((overrides, config))
    return combos


def plan_sweep(
    designs: Sequence[Tuple[str, Netlist]],
    base: FinderConfig,
    grid: Mapping[str, Sequence[object]],
) -> SweepPlan:
    """Build the deduplicated job list for ``designs x grid``.

    The netlist of each design is fingerprinted once and shared across all
    its grid points, so planning cost is ``O(designs + points)`` hashes of
    config-sized data rather than ``points`` netlist hashes.

    Nondeterministic points (``seed=None``) are never deduplicated: two grid
    points that collapse to the same config still describe two *independent*
    random samples, so sharing one run's report would silently halve the
    sweep's sample count.
    """
    if not designs:
        raise ServiceError("sweep needs at least one design")
    combos = expand_grid(base, grid)
    plan = SweepPlan()
    job_index_by_fingerprint: Dict[str, int] = {}
    for design_label, netlist in designs:
        for overrides, config in combos:
            job = DetectionJob(netlist=netlist, config=config, label=design_label)
            index = (
                job_index_by_fingerprint.get(job.fingerprint)
                if job.deterministic else None
            )
            if index is None:
                index = len(plan.jobs)
                plan.jobs.append(job)
                if job.deterministic:
                    job_index_by_fingerprint[job.fingerprint] = index
            plan.points.append(
                SweepPoint(
                    design=design_label,
                    overrides=tuple(sorted(overrides.items())),
                    job_index=index,
                )
            )
    return plan


@dataclass
class SweepOutcome:
    """Results of one executed sweep.

    Attributes:
        plan: the executed plan.
        job_results: one result per deduplicated job (plan order).
        wall_seconds: wall clock of planning and executing the sweep.
    """

    plan: SweepPlan
    job_results: List[JobResult]
    wall_seconds: float = 0.0

    def point_results(self) -> List[Tuple[SweepPoint, JobResult]]:
        """Every grid point paired with the result that answers it."""
        return [(point, self.job_results[point.job_index]) for point in self.plan.points]


def run_sweep(
    designs: Sequence[Tuple[str, Netlist]],
    base: FinderConfig,
    grid: Mapping[str, Sequence[object]],
    runner: BatchRunner,
) -> SweepOutcome:
    """Plan and execute a sweep through ``runner``.

    ``runner`` is a :class:`BatchRunner` (seed threads in this process) or
    anything with its ``run(jobs)`` contract, such as
    :class:`~repro.server.client.DaemonRunner`.
    """
    with Timer() as timer:
        plan = plan_sweep(designs, base, grid)
        results = runner.run(plan.jobs)
    return SweepOutcome(plan=plan, job_results=results, wall_seconds=timer.elapsed)
