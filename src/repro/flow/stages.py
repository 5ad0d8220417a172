"""Built-in stages wrapping every subsystem of the reproduction.

================  ======================  =============================================
stage             artifact kind           wraps
================  ======================  =============================================
``detect``        ``finder_report``       :mod:`repro.finder`, :mod:`repro.incremental`
``partition``     ``partition``           :mod:`repro.partition`
``place``         ``placement``           :mod:`repro.placement`
``congestion``    ``congestion``          :mod:`repro.routing`
``soft_blocks``   ``netlist``             :mod:`repro.apps.soft_blocks`
``resynthesis``   ``resynthesis``         :mod:`repro.apps.resynthesis`
================  ======================  =============================================

There is one detection stage: ``detect`` patches a traced run of an
edited design's base when the flow's store holds one (see
:class:`DetectStage`), so ``batch``, ``sweep``, ``flow run``, ``repro
detect`` and daemon submits share its reuse as they share its cache rows.

Stages that need upstream artifacts resolve them from the context by kind
(``congestion`` takes the latest placement; ``soft_blocks`` and
``resynthesis`` default their cell groups to the GTLs of the latest
detection report), so the same stage composes into many flows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.errors import FlowError
from repro.finder.config import FinderConfig
from repro.flow import artifacts
from repro.flow.stage import Stage, StageConfig, resolve_upstream
from repro.partition.fm import fm_bisect
from repro.placement.placer import Placement, place
from repro.placement.region import Die
from repro.routing.congestion import build_congestion_map


# ----------------------------------------------------------------------
# Detection
# ----------------------------------------------------------------------
class DetectStage(Stage):
    """Run the paper's three-phase GTL finder on the current design.

    Its config *is* :class:`~repro.finder.config.FinderConfig`; the seed
    trials run on the flow's worker pool when the context carries one, and
    serially otherwise.

    A miss computes through
    :func:`repro.incremental.engine.run_with_reuse`: when the flow's result
    store holds a traced run of a base design (the context's
    :class:`~repro.flow.context.Reuse`, or by default the latest run under
    this config on a design with the same cell names), only the seeds the
    edit could have influenced re-run, and the report is identical to a
    cold run's.  The reuse decision (``incremental_mode``,
    ``seeds_recomputed``, ...) is part of a computed result's metadata.
    """

    name = "detect"
    kind = artifacts.KIND_FINDER_REPORT
    Config = FinderConfig

    @property
    def deterministic(self) -> bool:
        return self.config.seed is not None

    def compute(self, ctx):
        from repro.incremental.engine import run_with_reuse

        reuse = ctx.reuse
        result = run_with_reuse(
            ctx.netlist,
            self.config,
            ctx.store,
            base=reuse.base,
            base_fingerprint=reuse.base_fingerprint,
            delta=reuse.delta,
            pool=ctx.pool,
        )
        ctx.computed.update(result.metadata())
        return result.report

    def metadata(self, report) -> Dict[str, object]:
        from repro.netlist.backend import resolve_backend

        best = report.gtls[0] if report.gtls else None
        return {
            "num_gtls": report.num_gtls,
            "best_size": best.size if best else None,
            "best_score": best.score if best else None,
            "rent_exponent": report.rent_exponent,
            # Execution detail, deliberately outside the fingerprint and the
            # artifact: both kernel backends produce identical reports, so
            # caches stay shared across backends.
            "kernel_backend": resolve_backend(),
        }

    def cache_items(self, report) -> int:
        return report.num_gtls


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PartitionConfig(StageConfig):
    """Knobs of one FM min-cut bisection.

    Attributes:
        balance_tolerance: allowed area imbalance between the two sides.
        max_passes: FM pass cap.
        seed: RNG seed of the initial random balanced split.
    """

    balance_tolerance: float = 0.1
    max_passes: int = 12
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.balance_tolerance < 1:
            raise FlowError("balance_tolerance must be in [0, 1)")
        if self.max_passes < 1:
            raise FlowError("max_passes must be >= 1")


class PartitionStage(Stage):
    """FM min-cut bisection of the current design."""

    name = "partition"
    kind = artifacts.KIND_PARTITION
    Config = PartitionConfig

    def compute(self, ctx):
        return fm_bisect(
            ctx.netlist,
            balance_tolerance=self.config.balance_tolerance,
            rng=self.config.seed,
            max_passes=self.config.max_passes,
        )

    def metadata(self, result) -> Dict[str, object]:
        from repro.netlist.backend import resolve_backend

        sides = list(result.sides.values())
        return {
            "cut": result.cut,
            "passes": result.passes,
            "side0": sides.count(0),
            "side1": sides.count(1),
            # Execution detail, deliberately outside the fingerprint and the
            # artifact: both FM backends produce bit-identical partitions,
            # so caches stay shared across backends.
            "kernel_backend": resolve_backend(),
        }

    def cache_items(self, result) -> int:
        return result.cut


# ----------------------------------------------------------------------
# Placement
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlaceConfig(StageConfig):
    """Knobs of the analytic placement flow (see
    :func:`repro.placement.placer.place`).

    Attributes:
        die: explicit target die; sized from cell area when ``None``.
        pad_positions: explicit pad coordinates (cell -> ``(x, y)``);
            perimeter-assigned when ``None`` and fixed cells exist.
        utilization: cell-area utilization used to size a default die.
        spreading_iterations: anchored re-solve/re-spread rounds.
        regroup_weight: relative anchor weight during re-solve rounds.
        contraction_weight: absolute anchor spring of the optional final
            contraction solve (0 disables).
        max_utilization: local density cap enforced after contraction.
        legalize: snap cells to rows at the end.
    """

    die: Optional[Die] = None
    pad_positions: Optional[Mapping[int, Tuple[float, float]]] = None
    utilization: float = 0.6
    spreading_iterations: int = 1
    regroup_weight: float = 0.25
    contraction_weight: float = 0.0
    max_utilization: float = 1.0
    legalize: bool = False


class PlaceStage(Stage):
    """Place the current design (solving on the augmented netlist when a
    soft-blocks stage installed one, reporting against the real design)."""

    name = "place"
    kind = artifacts.KIND_PLACEMENT
    Config = PlaceConfig

    def compute(self, ctx):
        target = ctx.solve_netlist if ctx.solve_netlist is not None else ctx.netlist
        config = self.config
        solved = place(
            target,
            die=config.die,
            pad_positions=dict(config.pad_positions)
            if config.pad_positions is not None
            else None,
            utilization=config.utilization,
            spreading_iterations=config.spreading_iterations,
            regroup_weight=config.regroup_weight,
            contraction_weight=config.contraction_weight,
            max_utilization=config.max_utilization,
            legalize=config.legalize,
        )
        if target is not ctx.netlist:
            # Pseudo-nets steered the solve; the artifact references the
            # real design so wirelength/congestion never see them.
            return Placement(netlist=ctx.netlist, die=solved.die, x=solved.x, y=solved.y)
        return solved

    def metadata(self, placement) -> Dict[str, object]:
        return {
            "hpwl": placement.hpwl(),
            "die": [placement.die.width, placement.die.height],
        }


# ----------------------------------------------------------------------
# Congestion
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CongestionConfig(StageConfig):
    """Knobs of the RUDY congestion estimate.

    Attributes:
        grid: ``(nx, ny)`` tile counts.
        capacity: per-tile routing capacity; calibrated from
            ``target_average_occupancy`` when ``None``.
        target_average_occupancy: average-occupancy calibration point.
    """

    grid: Tuple[int, int] = (32, 32)
    capacity: Optional[float] = None
    target_average_occupancy: float = 0.55


class CongestionStage(Stage):
    """RUDY congestion map of the latest upstream placement."""

    name = "congestion"
    kind = artifacts.KIND_CONGESTION
    Config = CongestionConfig

    def compute(self, ctx):
        placement = resolve_upstream(ctx, artifacts.KIND_PLACEMENT, self.name)
        return build_congestion_map(
            placement,
            grid=tuple(self.config.grid),
            capacity=self.config.capacity,
            target_average_occupancy=self.config.target_average_occupancy,
        )

    def metadata(self, cmap) -> Dict[str, object]:
        occupancy = cmap.occupancy
        return {
            "max_occupancy": float(occupancy.max()),
            "mean_occupancy": float(occupancy.mean()),
            "overfull_tiles": int(np.count_nonzero(occupancy >= 1.0)),
        }


# ----------------------------------------------------------------------
# Soft blocks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SoftBlocksConfig(StageConfig):
    """Knobs of soft-block (attraction pseudo-net) construction.

    Attributes:
        groups: explicit cell groups; ``None`` takes the GTLs of the latest
            upstream detection report.
        chords_per_cell: extra random 2-pin attractions per member.
        seed: RNG seed for ring/chord selection.
    """

    groups: Optional[Tuple[Tuple[int, ...], ...]] = None
    chords_per_cell: float = 0.5
    seed: int = 0


class SoftBlocksStage(Stage):
    """Augment the design with attraction pseudo-nets per group; downstream
    placement solves on the augmented netlist."""

    name = "soft_blocks"
    kind = artifacts.KIND_NETLIST
    Config = SoftBlocksConfig

    def __init__(self, config=None, **overrides):
        if "groups" in overrides and overrides["groups"] is not None:
            overrides["groups"] = tuple(
                tuple(sorted(set(group))) for group in overrides["groups"]
            )
        super().__init__(config, **overrides)

    def compute(self, ctx):
        from repro.apps.soft_blocks import soft_block_nets

        groups = self.config.groups
        if groups is None:
            report = resolve_upstream(ctx, artifacts.KIND_FINDER_REPORT, self.name)
            groups = tuple(tuple(sorted(g.cells)) for g in report.gtls)
        return soft_block_nets(
            ctx.netlist,
            groups,
            chords_per_cell=self.config.chords_per_cell,
            rng=self.config.seed,
        )

    def apply(self, ctx, augmented):
        ctx.solve_netlist = augmented

    def metadata(self, augmented) -> Dict[str, object]:
        return {"num_nets": augmented.num_nets}


# ----------------------------------------------------------------------
# Resynthesis
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ResynthesisConfig(StageConfig):
    """Knobs of GTL re-instantiation (wide-gate decomposition).

    Attributes:
        cells: explicit cells to decompose; ``None`` takes the union of all
            GTL members of the latest upstream detection report.
        max_fanin: maximum inputs per decomposed stage (>= 2).
        stage_area: area of each new stage cell.
    """

    cells: Optional[Tuple[int, ...]] = None
    max_fanin: int = 2
    stage_area: float = 0.9


class ResynthesisStage(Stage):
    """Re-instantiate the selected cells; the decomposed netlist becomes the
    current design for every stage after this one."""

    name = "resynthesis"
    kind = artifacts.KIND_RESYNTHESIS
    Config = ResynthesisConfig

    def __init__(self, config=None, **overrides):
        if "cells" in overrides and overrides["cells"] is not None:
            overrides["cells"] = tuple(sorted(set(overrides["cells"])))
        super().__init__(config, **overrides)

    def compute(self, ctx):
        from repro.apps.resynthesis import decompose_complex_gates

        cells = self.config.cells
        if cells is None:
            report = resolve_upstream(ctx, artifacts.KIND_FINDER_REPORT, self.name)
            members = set()
            for gtl in report.gtls:
                members.update(gtl.cells)
            cells = tuple(sorted(members))
        netlist, mapping = decompose_complex_gates(
            ctx.netlist,
            cells,
            max_fanin=self.config.max_fanin,
            stage_area=self.config.stage_area,
        )
        return artifacts.ResynthesisResult(netlist=netlist, mapping=mapping)

    def apply(self, ctx, result):
        ctx.netlist = result.netlist
        ctx.solve_netlist = None

    def metadata(self, result) -> Dict[str, object]:
        decomposed = sum(1 for new in result.mapping.values() if len(new) > 1)
        return {
            "decomposed_cells": decomposed,
            "new_num_cells": result.netlist.num_cells,
            "new_num_nets": result.netlist.num_nets,
        }


#: Manifest stage-name registry (see :mod:`repro.flow.manifest`).
BUILTIN_STAGES = {
    DetectStage.name: DetectStage,
    PartitionStage.name: PartitionStage,
    PlaceStage.name: PlaceStage,
    CongestionStage.name: CongestionStage,
    SoftBlocksStage.name: SoftBlocksStage,
    ResynthesisStage.name: ResynthesisStage,
}

__all__ = [
    "DetectStage",
    "PartitionConfig",
    "PartitionStage",
    "PlaceConfig",
    "PlaceStage",
    "CongestionConfig",
    "CongestionStage",
    "SoftBlocksConfig",
    "SoftBlocksStage",
    "ResynthesisConfig",
    "ResynthesisStage",
    "BUILTIN_STAGES",
]
