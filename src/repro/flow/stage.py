"""The stage abstraction: one named, configured, fingerprintable unit of work.

A :class:`Stage` couples

* a **name** (``"detect"``, ``"place"``, ...) and an artifact **kind**
  (what its output decodes as),
* a **frozen config dataclass** (every knob of the stage; hashable content,
  validated overrides),
* a ``compute(ctx) -> artifact`` implementation over a
  :class:`~repro.flow.context.FlowContext`, and
* an ``apply(ctx, artifact)`` hook that installs the artifact's side
  effects into the context (e.g. a soft-blocks stage swapping in the
  augmented solve netlist) — called for computed *and* cache-hit
  artifacts, so a fully cached flow replays identically.

Every stage execution is wrapped in a uniform :class:`StageResult`
envelope: artifact + content fingerprint + timing + metadata.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Sequence

from repro.errors import FlowError
from repro.service.fingerprint import fingerprint_frozen_config, stage_fingerprint
from repro.utils.configs import replace_checked


@dataclass(frozen=True)
class StageConfig:
    """Base class of all stage configs: a frozen dataclass with validated
    overrides."""

    def with_overrides(self, **kwargs) -> "StageConfig":
        """Copy of this config with some fields replaced.

        Unknown keys raise :class:`~repro.errors.FlowError` listing the
        valid field names.
        """
        return replace_checked(self, FlowError, **kwargs)


@dataclass(frozen=True)
class StageResult:
    """Uniform envelope around one executed (or cache-answered) stage.

    Attributes:
        stage: the stage's label inside its flow (the stage name, suffixed
            ``#2``, ``#3``, ... when a flow repeats a stage).
        kind: artifact kind (codec id), e.g. ``"finder_report"``.
        artifact: the stage's output object.
        fingerprint: content fingerprint keying the artifact in the store.
        cached: True when the artifact came from the result store.
        runtime_seconds: wall-clock spent answering this stage (lookup or
            compute).
        metadata: small stage-reported summary (counts, scores, sizes) for
            tables and JSONL rows; JSON-safe scalars only.
    """

    stage: str
    kind: str
    artifact: Any
    fingerprint: str
    cached: bool
    runtime_seconds: float
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def to_row(self) -> Dict[str, Any]:
        """JSON-safe summary row (artifact omitted)."""
        return {
            "stage": self.stage,
            "kind": self.kind,
            "fingerprint": self.fingerprint,
            "cached": self.cached,
            "runtime_seconds": self.runtime_seconds,
            "metadata": dict(self.metadata),
        }

    @property
    def cache_label(self) -> str:
        """``"hit"`` or ``"run"`` — the table/progress spelling of
        :attr:`cached`."""
        return "hit" if self.cached else "run"

    def metadata_summary(self) -> str:
        """One-line ``key=value`` rendering of :attr:`metadata` (shared by
        :meth:`FlowResult.summary` and the CLI table)."""
        def fmt(value) -> str:
            if isinstance(value, float):
                return f"{value:.4g}"
            return str(value)

        return ", ".join(
            f"{key}={fmt(value)}"
            for key, value in self.metadata.items()
            if value is not None and value != ""
        )


class Stage:
    """Base class of all flow stages.

    Subclasses set the class attributes ``name`` (stage id), ``kind``
    (artifact codec id) and ``Config`` (a frozen config dataclass), and
    implement :meth:`compute`.  Construction takes either a ready config or
    keyword overrides on the config's defaults::

        DetectStage(FinderConfig(num_seeds=64, seed=1))
        PartitionStage(balance_tolerance=0.2)
    """

    name: str = ""
    kind: str = ""
    Config: type = StageConfig

    def __init__(self, config=None, **overrides) -> None:
        if config is not None and not isinstance(config, self.Config):
            raise FlowError(
                f"{type(self).__name__} expects a {self.Config.__name__} "
                f"config, got {type(config).__name__}"
            )
        base = config if config is not None else self.Config()
        if overrides:
            base = base.with_overrides(**overrides)
        self.config = base

    # ------------------------------------------------------------------
    @property
    def deterministic(self) -> bool:
        """True when identical inputs always produce identical artifacts
        (the precondition for caching this stage's output)."""
        return True

    def config_fingerprint(self) -> str:
        """Content fingerprint of this stage's config."""
        return fingerprint_frozen_config(self.config)

    def fingerprint(self, inputs: Sequence[str]) -> str:
        """Store key of this stage's artifact, given the design fingerprint
        and the fingerprints of every stage before it (``inputs``)."""
        return stage_fingerprint(self.name, self.config_fingerprint(), inputs)

    # ------------------------------------------------------------------
    def compute(self, ctx) -> Any:
        """Produce this stage's artifact from the flow context."""
        raise NotImplementedError

    def apply(self, ctx, artifact: Any) -> None:
        """Install ``artifact``'s context side effects (default: none).

        Runs after :meth:`compute` *and* after a cache hit, so cached and
        computed executions leave the context in the same state.
        """

    def metadata(self, artifact: Any) -> Dict[str, Any]:
        """Small JSON-safe summary of ``artifact`` for tables/JSONL."""
        return {}

    def cache_items(self, artifact: Any) -> int:
        """Item count recorded next to the cached payload (store metadata)."""
        return 0

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        changed = []
        for f in dataclasses.fields(self.config):
            value = getattr(self.config, f.name)
            if f.default is not dataclasses.MISSING and value != f.default:
                changed.append(f"{f.name}={value!r}")
        inner = ", ".join(changed)
        return f"{type(self).__name__}({inner})"


def resolve_upstream(ctx, kind: str, stage_name: str) -> Any:
    """Latest upstream artifact of ``kind``, or a clear :class:`FlowError`.

    Shared by stages that consume a predecessor's output (congestion needs
    a placement, soft blocks defaults its groups to detected GTLs).
    """
    artifact = ctx.latest_artifact(kind)
    if artifact is None:
        raise FlowError(
            f"stage {stage_name!r} needs an upstream {kind!r} artifact; "
            f"declare a stage producing one earlier in the flow"
        )
    return artifact


__all__ = ["Stage", "StageConfig", "StageResult", "resolve_upstream"]
