"""Sweep planning with fingerprint-level deduplication.

A sweep is a list of points, each a design label, a netlist and the config
overrides applied to a base config there.  The points are listed (a batch
manifest's ``jobs``) or built as a cartesian grid of overrides (e.g.
``lambda_skip x num_seeds``) over a set of designs.  Points routinely
repeat work — a grid value equal to the base config's value, two axes that
collapse to the same effective config, one job listed twice — so the
planner deduplicates jobs by content fingerprint: every distinct
``(netlist, config)`` pair is executed exactly once and its report is
fanned back out to all points that requested it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from repro.errors import FinderError, ServiceError
from repro.finder.config import FinderConfig
from repro.netlist.hypergraph import Netlist
from repro.service.jobs import BatchRunner, DetectionJob, JobResult
from repro.utils.timer import Timer

#: One point to plan: design label, netlist, config overrides of the base.
ListedPoint = Tuple[str, Netlist, Mapping[str, object]]


@dataclass(frozen=True)
class SweepPoint:
    """One planned point of a sweep.

    Attributes:
        design: label of the design this point runs on.
        overrides: the config overrides applied at this point (field -> value).
        job_index: index into :attr:`SweepPlan.jobs` of the deduplicated job
            that answers this point.
    """

    design: str
    overrides: Tuple[Tuple[str, object], ...]
    job_index: int


@dataclass
class SweepPlan:
    """Deduplicated execution plan of one sweep.

    Attributes:
        jobs: distinct jobs to execute (one per unique fingerprint).
        points: every point, referencing its job by index.
    """

    jobs: List[DetectionJob] = field(default_factory=list)
    points: List[SweepPoint] = field(default_factory=list)

    @property
    def num_deduplicated(self) -> int:
        """Points answered by a job another point also requested."""
        return len(self.points) - len(self.jobs)


def point_config(base: FinderConfig, overrides: Mapping[str, object]) -> FinderConfig:
    """``base`` with ``overrides``, or a :class:`ServiceError` naming them."""
    try:
        return base.with_overrides(**overrides)
    except (FinderError, TypeError) as error:
        raise ServiceError(f"invalid config {dict(overrides)}: {error}") from error


def expand_grid(
    base: FinderConfig, grid: Mapping[str, Sequence[object]]
) -> List[Tuple[Dict[str, object], FinderConfig]]:
    """Cartesian expansion of ``grid`` over ``base``.

    Returns ``(overrides, config)`` pairs in deterministic order (axes
    sorted by name, values in given order).  Raises :class:`ServiceError`
    for unknown config fields, empty axes or invalid field values.
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
    combos = (
        dict(zip(axes, values))
        for values in itertools.product(*(grid[axis] for axis in axes))
    )
    return [(overrides, point_config(base, overrides)) for overrides in combos]


def grid_points(
    designs: Sequence[Tuple[str, Any]],
    base: FinderConfig,
    grid: Mapping[str, Sequence[object]],
) -> List[Tuple[str, Any, Dict[str, object]]]:
    """``designs x grid`` as ``(label, design, overrides)``, design-major;
    ``design`` is passed through (a netlist, or a path to load)."""
    combos = expand_grid(base, grid)
    return [
        (label, design, overrides)
        for label, design in designs
        for overrides, _ in combos
    ]


def plan_points(points: Sequence[ListedPoint], base: FinderConfig) -> SweepPlan:
    """Build the deduplicated job list of ``points``, in point order.

    Each netlist's fingerprint is memoized on it, so planning cost is
    ``O(designs + points)`` hashes of config-sized data rather than
    ``points`` netlist hashes.

    Nondeterministic points (``seed=None``) are never deduplicated: two
    points that collapse to the same config still describe two
    *independent* random samples, so sharing one run's report would
    silently halve the sweep's sample count.
    """
    if not points:
        raise ServiceError("a sweep needs at least one point")
    plan = SweepPlan()
    job_index_by_fingerprint: Dict[str, int] = {}
    for label, netlist, overrides in points:
        job = DetectionJob(
            netlist=netlist, config=point_config(base, overrides), label=label
        )
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
                design=label,
                overrides=tuple(sorted(overrides.items())),
                job_index=index,
            )
        )
    return plan


def plan_sweep(
    designs: Sequence[Tuple[str, Netlist]],
    base: FinderConfig,
    grid: Mapping[str, Sequence[object]],
) -> SweepPlan:
    """Build the deduplicated job list for ``designs x grid``."""
    return plan_points(grid_points(designs, base, grid), base)


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
        """Every point paired with the result that answers it."""
        return [(point, self.job_results[point.job_index]) for point in self.plan.points]


def _execute(runner: BatchRunner, make_plan: Callable[[], SweepPlan]) -> SweepOutcome:
    with Timer() as timer:
        plan = make_plan()
        results = runner.run(plan.jobs)
    return SweepOutcome(plan=plan, job_results=results, wall_seconds=timer.elapsed)


def run_points(
    points: Sequence[ListedPoint], base: FinderConfig, runner: BatchRunner
) -> SweepOutcome:
    """Plan ``points`` and execute the plan through ``runner``: a
    :class:`BatchRunner` (seed threads in this process) or anything with its
    ``run(jobs)`` contract, such as :class:`~repro.server.client.DaemonRunner`.
    """
    return _execute(runner, lambda: plan_points(points, base))


def run_sweep(
    designs: Sequence[Tuple[str, Netlist]],
    base: FinderConfig,
    grid: Mapping[str, Sequence[object]],
    runner: BatchRunner,
) -> SweepOutcome:
    """:func:`run_points` over the points of ``designs x grid``."""
    return _execute(runner, lambda: plan_sweep(designs, base, grid))
