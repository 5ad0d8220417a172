"""repro.flow — one composable stage API over detect / partition / place /
route, with per-stage fingerprint caching.

The public pipeline surface of the package.  Everything the service layer,
CLI, experiments and applications run is expressed as a :class:`Flow`: an
ordered list of :class:`Stage` objects, each with a frozen config
dataclass, executed over a shared :class:`FlowContext` and wrapped in a
uniform :class:`StageResult` envelope (artifact + content fingerprint +
timing + metadata).

Per-stage caching: a stage's fingerprint covers the design, its config and
every upstream stage, so *any* stage artifact — detection report,
partition, placement, congestion map, transformed netlist — is
content-addressable in a :class:`~repro.service.store.ResultStore`, and a
re-run with an unchanged prefix is answered bit-identically from cache.

Quick start::

    from repro.flow import CongestionStage, DetectStage, Flow, PlaceStage
    from repro.service import ResultStore

    flow = Flow([DetectStage(num_seeds=32, seed=1), PlaceStage(),
                 CongestionStage(grid=(32, 32))])
    with ResultStore(".repro-cache") as store:
        result = flow.run(netlist, store=store)
    report = result.artifact("detect")
    heat = result.artifact("congestion").occupancy

Manifests (``tangled-logic flow run flow.json``) declare the same thing as
JSON — see :mod:`repro.flow.manifest`.
"""

# Import order matters: stage/context/artifacts are the leaves; stages and
# the composer reach back into this (partially initialized) package.
from repro.flow.stage import Stage, StageConfig, StageResult
from repro.flow.context import FlowContext, Reuse
from repro.flow.artifacts import (
    ARTIFACT_CODEC_VERSION,
    ResynthesisResult,
    artifact_kinds,
    decode_artifact,
    encode_artifact,
)
from repro.flow.stages import (
    BUILTIN_STAGES,
    CongestionConfig,
    CongestionStage,
    DetectStage,
    PartitionConfig,
    PartitionStage,
    PlaceConfig,
    PlaceStage,
    ResynthesisConfig,
    ResynthesisStage,
    SoftBlocksConfig,
    SoftBlocksStage,
)
from repro.flow.flow import Flow, FlowResult
from repro.flow.manifest import FlowManifest, flow_from_manifest, stage_from_entry
from repro.flow.api import CACHE_ENV_VAR, detect, place_with_soft_blocks

__all__ = [
    "Stage",
    "StageConfig",
    "StageResult",
    "FlowContext",
    "Reuse",
    "Flow",
    "FlowResult",
    "ARTIFACT_CODEC_VERSION",
    "ResynthesisResult",
    "artifact_kinds",
    "encode_artifact",
    "decode_artifact",
    "BUILTIN_STAGES",
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
    "FlowManifest",
    "flow_from_manifest",
    "stage_from_entry",
    "CACHE_ENV_VAR",
    "detect",
    "place_with_soft_blocks",
]
