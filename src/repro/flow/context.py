"""The mutable state a flow threads through its stages."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.netlist.hypergraph import Netlist


@dataclass
class FlowContext:
    """Everything a stage can read (and the little it can write).

    Attributes:
        netlist: the current design.  Transform stages (resynthesis) may
            replace it, which re-designs everything downstream.
        solve_netlist: an augmented variant of ``netlist`` used only for
            solving (soft-block pseudo-nets); placement stages solve on it
            when set but report results against ``netlist``.
        pool: optional shared :class:`~repro.service.pool.WorkerPool` for
            stages with internal parallelism (detection seed trials).
        store: the :class:`~repro.service.store.ResultStore` the flow runs
            against (``None`` when caching is off).  Stages with their own
            reuse machinery (incremental detection) read it directly.
        results: :class:`~repro.flow.stage.StageResult` of every stage run
            so far, in declaration order.
    """

    netlist: Netlist
    solve_netlist: Optional[Netlist] = None
    pool: Optional[Any] = None
    store: Optional[Any] = None
    results: List[Any] = field(default_factory=list)

    def latest_artifact(self, kind: str) -> Optional[Any]:
        """Most recent upstream artifact of ``kind``, or ``None``."""
        for result in reversed(self.results):
            if result.kind == kind:
                return result.artifact
        return None

    def result(self, stage: str) -> Optional[Any]:
        """The :class:`StageResult` labelled ``stage``, or ``None``."""
        for result in self.results:
            if result.stage == stage:
                return result
        return None


__all__ = ["FlowContext"]
