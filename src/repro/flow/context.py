"""The mutable state a flow threads through its stages."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.netlist.hypergraph import Netlist


@dataclass(frozen=True)
class Reuse:
    """What the detect stages of one flow run may patch from.

    The default leaves the choice to the store: the head pointer of the
    stage's config and the design's cell name table and pin total (see
    :mod:`repro.incremental.engine`).  A caller that knows the base names
    it here, as a netlist or as the fingerprint of a design an earlier run
    recorded, with the edit from it when that is known too.

    Attributes:
        base: the base design.
        base_fingerprint: the base design's fingerprint (when ``base`` is
            not at hand).
        delta: the :class:`~repro.incremental.delta.NetlistDelta` from
            the base to the flow's design; diffed when ``None``.
    """

    base: Optional[Netlist] = None
    base_fingerprint: str = ""
    delta: Optional[Any] = None


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
            against (``None`` when caching is off).  The detect stage
            computes a miss against it: it patches a traced run the store
            holds when that is sound, and persists its own trace.
        reuse: the run's :class:`Reuse` (what a detect may patch from).
        computed: metadata of how the running stage computed its artifact
            (a detect's reuse decision); the flow empties it before each
            stage and adds it to the metadata of a computed
            :class:`~repro.flow.stage.StageResult`.
        results: :class:`~repro.flow.stage.StageResult` of every stage run
            so far, in declaration order.
    """

    netlist: Netlist
    solve_netlist: Optional[Netlist] = None
    pool: Optional[Any] = None
    store: Optional[Any] = None
    reuse: Reuse = field(default_factory=Reuse)
    computed: Dict[str, Any] = field(default_factory=dict)
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


__all__ = ["FlowContext", "Reuse"]
