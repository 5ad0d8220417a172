"""Incremental detection over netlist deltas.

``diff`` two netlists into a :class:`NetlistDelta`, expand the edit into a
:class:`DirtyRegion` through the hypergraph, and patch a cached
:class:`~repro.finder.result.FinderReport` by re-running Phase I–III only
for the seeds whose footprint the edit could have reached.  Patched
reports are bit-identical to a cold run on the edited netlist — see
:mod:`repro.incremental.engine` for the invariant and the persistence
model, and ``repro diff`` / ``repro detect --base`` / ``repro submit
--delta`` for the user-facing surfaces.
"""

from repro.incremental.delta import (
    DELTA_VERSION,
    CellEdit,
    NetEdit,
    NetlistDelta,
    apply_delta,
    delta_fingerprint,
    diff,
)
from repro.incremental.dirty import (
    DirtyRegion,
    delta_endpoint_cells,
    dirty_region,
    expand_frontier,
)
from repro.incremental.engine import (
    KIND_FINDER_TRACE,
    KIND_INCREMENTAL_HEAD,
    KIND_INCREMENTAL_PROVENANCE,
    IncrementalResult,
    SeedTrace,
    design_path,
    detect_with_reuse,
    incremental_detect,
    load_trace,
    run_traced,
)

__all__ = [
    "DELTA_VERSION",
    "KIND_FINDER_TRACE",
    "KIND_INCREMENTAL_HEAD",
    "KIND_INCREMENTAL_PROVENANCE",
    "CellEdit",
    "DirtyRegion",
    "IncrementalResult",
    "NetEdit",
    "NetlistDelta",
    "SeedTrace",
    "apply_delta",
    "delta_endpoint_cells",
    "delta_fingerprint",
    "design_path",
    "detect_with_reuse",
    "diff",
    "dirty_region",
    "expand_frontier",
    "incremental_detect",
    "load_trace",
    "run_traced",
]
