"""Incremental detection: patch a cached report instead of recomputing it.

The full finder is embarrassingly parallel over seeds, and each seed's
outcome depends only on its footprint's neighborhood (see
:mod:`repro.incremental.dirty`).  So an edited netlist needs Phase I–III
re-run only for the seeds whose footprint intersects the edit's dirty
region, or whose planned ``(seed_cell, rng_seed)`` job diverged (weighted
seed strategies sample by netlist statistics).  A patch is therefore an
ordinary finder run over recorded outcomes: :func:`incremental_detect`
only decides what to reuse — validate, diff, dirty region, re-plan, pick
the dirty seeds — and hands the plan, with every other outcome of the
recorded :class:`SeedTrace` as known, to
:func:`repro.finder.finder.run_seed_plan`, the one function that runs
seed jobs and reduces them (a cold run and :func:`run_traced` go through
it too).  Because the reduce is pure in its inputs, the patched report is
**identical** to a cold run on the edited netlist — the parity invariant
every test here asserts, on both kernel backends.

Reuse is only sound when the netlist-global inputs of a seed job are
unchanged; :func:`incremental_detect` runs every seed (a full traced run)
when they are not, or when patching would not pay:

* cells added or removed, or the cell count changed (the eligible-seed
  set and index space shift);
* the total pin count changed (it parametrizes the density-aware score
  exponent, coupling every group's score to the whole netlist);
* any cell's ``fixed`` flag flipped (the eligible-seed set and growth
  exclusion shift);
* the dirty fraction exceeds :data:`FULL_THRESHOLD` (patching would
  re-run nearly everything anyway, so skip the bookkeeping);
* the seed plan changed size.

Persistence: :func:`detect_with_reuse` runs a one-stage
:class:`~repro.flow.flow.Flow`, which looks up and records the report
under the job fingerprint like every other detection entry point; a miss
computes through :func:`run_with_reuse`, which keeps

* the seed trace (``trace-<job fp>``, :data:`KIND_FINDER_TRACE`);
* a provenance row for patched reports (``prov-<job fp>``,
  :data:`KIND_INCREMENTAL_PROVENANCE`: ``base_fingerprint``,
  ``delta_fingerprint``, ``dirty_cells``);
* a per-config head pointer (``head-<config fp>``,
  :data:`KIND_INCREMENTAL_HEAD`) naming the latest traced run, so the
  next edit finds its base automatically;
* the design itself, packed once into the cache dir's design packs
  (:mod:`repro.service.designs`), so a later ``repro detect --base <fp>``
  can diff against it without the original file.  A base pack that cannot
  be loaded (cut short, or of an older format) is removed with a warning
  and the edit runs in full, which writes a sound base for the next one.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ServiceError
from repro.finder.candidate import CandidateGTL
from repro.finder.config import FinderConfig
from repro.finder.finder import _SeedOutcome, plan_seed_jobs, run_seed_plan
from repro.finder.result import FinderReport
from repro.netlist.hypergraph import Netlist
from repro.netlist.ops import GroupStats
from repro.obs import trace
from repro.service import designs
from repro.service.codec import config_from_dict, config_to_dict
from repro.service.fingerprint import (
    fingerprint_config,
    fingerprint_netlist,
    job_fingerprint,
)
from repro.service.store import ResultStore
from repro.utils.timer import Timer

from repro.incremental.delta import NetlistDelta, delta_fingerprint, diff
from repro.incremental.dirty import DirtyRegion, dirty_region

#: Store row kinds introduced by incremental detection.
KIND_FINDER_TRACE = "finder_trace"
KIND_INCREMENTAL_PROVENANCE = "incremental_provenance"
KIND_INCREMENTAL_HEAD = "incremental_head"

#: Version of the persisted seed-trace payload.
TRACE_VERSION = 1

#: Dirty-fraction ceiling beyond which patching falls back to a full
#: recompute.  Like every reuse decision it changes how many seeds re-run,
#: never the report.
FULL_THRESHOLD = 0.25


def _trace_key(job_fingerprint_: str) -> str:
    return f"trace-{job_fingerprint_}"


def _provenance_key(job_fingerprint_: str) -> str:
    return f"prov-{job_fingerprint_}"


def _head_key(config_fingerprint_: str) -> str:
    return f"head-{config_fingerprint_}"


# ----------------------------------------------------------------------
# Seed traces
# ----------------------------------------------------------------------
def _candidate_to_row(candidate: Optional[CandidateGTL]) -> Optional[List[Any]]:
    if candidate is None:
        return None
    stats = candidate.stats
    return [
        sorted(candidate.cells),
        candidate.score,
        [stats.size, stats.cut, stats.pins, stats.internal_nets, stats.avg_pins],
        candidate.rent_exponent,
        candidate.seed,
    ]


def _candidate_from_row(row: Optional[Sequence[Any]]) -> Optional[CandidateGTL]:
    if row is None:
        return None
    cells, score, stats_row, rent, seed = row
    size, cut, pins, internal_nets, avg_pins = stats_row
    return CandidateGTL(
        cells=frozenset(int(c) for c in cells),
        score=float(score),
        stats=GroupStats(
            size=int(size), cut=int(cut), pins=int(pins),
            internal_nets=int(internal_nets), avg_pins=float(avg_pins),
        ),
        rent_exponent=float(rent),
        seed=int(seed),
    )


@dataclass(frozen=True)
class SeedTrace:
    """Everything needed to replay one finder run seed-by-seed.

    Attributes:
        netlist_fingerprint: content fingerprint of the traced netlist.
        config: the finder configuration of the run.
        num_cells: cell count of the traced netlist (reuse guard).
        num_pins: total pin count of the traced netlist (reuse guard — it
            parametrizes the density-aware score exponent).
        jobs: the ``(seed_cell, rng_seed)`` plan, in execution order.
        outcomes: one ``_SeedOutcome`` per job, same order.
    """

    netlist_fingerprint: str
    config: FinderConfig
    num_cells: int
    num_pins: int
    jobs: Tuple[Tuple[int, int], ...]
    outcomes: Tuple[_SeedOutcome, ...]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe storage form (NaN Rent estimates encode as ``null``)."""
        return {
            "version": TRACE_VERSION,
            "netlist_fingerprint": self.netlist_fingerprint,
            "config": config_to_dict(self.config),
            "num_cells": self.num_cells,
            "num_pins": self.num_pins,
            "jobs": [[cell, rng] for cell, rng in self.jobs],
            "outcomes": [
                [
                    _candidate_to_row(candidate),
                    None if math.isnan(rent) else rent,
                    orderings,
                    list(footprint),
                ]
                for candidate, rent, orderings, footprint in self.outcomes
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SeedTrace":
        if not isinstance(data, dict) or data.get("version") != TRACE_VERSION:
            raise ServiceError(
                f"unsupported seed-trace payload "
                f"(version {data.get('version') if isinstance(data, dict) else '?'!r}, "
                f"this build speaks {TRACE_VERSION})"
            )
        try:
            return cls(
                netlist_fingerprint=str(data["netlist_fingerprint"]),
                config=config_from_dict(data["config"]),
                num_cells=int(data["num_cells"]),
                num_pins=int(data["num_pins"]),
                jobs=tuple((int(c), int(r)) for c, r in data["jobs"]),
                outcomes=tuple(
                    (
                        _candidate_from_row(candidate_row),
                        float("nan") if rent is None else float(rent),
                        int(orderings),
                        tuple(int(c) for c in footprint),
                    )
                    for candidate_row, rent, orderings, footprint in data["outcomes"]
                ),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ServiceError(f"malformed seed-trace payload: {error}") from error


def run_traced(
    netlist: Netlist,
    config: FinderConfig,
    pool: Optional[Any] = None,
) -> Tuple[FinderReport, SeedTrace]:
    """One full finder run, returning the report plus its seed trace."""
    result = _traced_run(netlist, config, plan_seed_jobs(netlist, config), pool)
    return result.report, result.trace


# ----------------------------------------------------------------------
# Incremental detection
# ----------------------------------------------------------------------
@dataclass
class IncrementalResult:
    """Outcome of one :func:`incremental_detect` / :func:`detect_with_reuse`.

    ``mode`` is ``"incremental"`` (patched from a base trace), ``"full"``
    (cold run; ``reason`` says why), or ``"cached"`` (store answered the
    exact job fingerprint; no trace work at all).
    """

    report: FinderReport
    trace: Optional[SeedTrace] = None
    mode: str = "full"
    reason: str = ""
    base_fingerprint: str = ""
    delta_fingerprint: str = ""
    dirty_cells: int = 0
    dirty_fraction: float = 0.0
    seeds_total: int = 0
    seeds_recomputed: int = 0

    @property
    def seeds_reused(self) -> int:
        return self.seeds_total - self.seeds_recomputed

    def provenance(self) -> Dict[str, Any]:
        """The provenance payload stored next to a patched report."""
        return {
            "mode": self.mode,
            "reason": self.reason,
            "base_fingerprint": self.base_fingerprint,
            "delta_fingerprint": self.delta_fingerprint,
            "dirty_cells": self.dirty_cells,
            "dirty_fraction": self.dirty_fraction,
            "seeds_total": self.seeds_total,
            "seeds_recomputed": self.seeds_recomputed,
        }

    def summary(self) -> str:
        if self.mode == "incremental":
            return (
                f"incremental: {self.seeds_recomputed}/{self.seeds_total} "
                f"seed(s) re-run ({self.dirty_cells} dirty cell(s), "
                f"{self.dirty_fraction:.1%} of the netlist)"
            )
        if self.mode == "cached":
            return "cached: exact fingerprint answered from the store"
        return f"full recompute ({self.reason or 'no base'})"


def _traced_run(
    netlist: Netlist,
    config: FinderConfig,
    jobs: Sequence[Tuple[int, int]],
    pool: Optional[Any],
    known: Optional[Dict[int, _SeedOutcome]] = None,
    **fields: Any,
) -> IncrementalResult:
    """Run the ``jobs`` without a ``known`` outcome and reduce
    (:func:`~repro.finder.finder.run_seed_plan`), as a traced result;
    ``fields`` are its mode, reason and provenance."""
    report, outcomes = run_seed_plan(netlist, config, jobs, pool, known)
    return IncrementalResult(
        report=report,
        trace=SeedTrace(
            netlist_fingerprint=fingerprint_netlist(netlist),
            config=config,
            num_cells=netlist.num_cells,
            num_pins=netlist.num_pins,
            jobs=tuple(jobs),
            outcomes=tuple(outcomes),
        ),
        seeds_total=len(jobs),
        seeds_recomputed=len(jobs) - len(known or {}),
        **fields,
    )


def _full_fallback_reason(
    base: Netlist,
    new: Netlist,
    seed_trace: SeedTrace,
    delta: NetlistDelta,
    region: DirtyRegion,
    jobs: Sequence[Tuple[int, int]],
) -> Optional[str]:
    """Why this edit runs in full instead of being patched, or ``None``
    (the reasons are listed in the module docstring)."""
    if delta.cells_added or delta.cells_removed:
        return "cell set changed"
    if new.num_cells != seed_trace.num_cells:
        return "cell count changed"
    if new.num_pins != seed_trace.num_pins:
        # Total pins parametrize the gtl_sd score exponent: every group's
        # score shifts, so nothing recorded can be reused.
        return "total pin count changed"
    if any(
        edit.fixed != base.cell_is_fixed(base.cell_index(edit.name))
        for edit in delta.cells_changed
    ):
        return "fixed flags changed"
    if region.fraction > FULL_THRESHOLD:
        return (
            f"dirty fraction {region.fraction:.1%} exceeds "
            f"threshold {FULL_THRESHOLD:.1%}"
        )
    if len(jobs) != len(seed_trace.jobs):
        return "seed plan size changed"
    return None


def incremental_detect(
    base: Netlist,
    new: Netlist,
    seed_trace: SeedTrace,
    config: Optional[FinderConfig] = None,
    *,
    delta: Optional[NetlistDelta] = None,
    pool: Optional[Any] = None,
) -> IncrementalResult:
    """Patch a traced base run onto the edited netlist ``new``.

    Re-runs Phase I–III only for seeds whose recorded footprint intersects
    the edit's dirty region (or whose planned ``(seed_cell, rng_seed)``
    job diverged): every other outcome is known from ``seed_trace``, and
    :func:`~repro.finder.finder.run_seed_plan` runs the rest and reduces.
    The returned report is identical to a cold run on ``new`` —
    full-recompute parity is the invariant, not an approximation.  Its
    ``runtime_seconds`` covers the whole ``incremental.detect`` span.
    """
    config = config or seed_trace.config
    if config.seed is None:
        raise ServiceError(
            "incremental detection requires a pinned config.seed "
            "(nondeterministic runs cannot be replayed)"
        )
    if fingerprint_config(config) != fingerprint_config(seed_trace.config):
        raise ServiceError(
            "seed trace was recorded under a different finder config; "
            "re-run the base detection with the requested config first"
        )
    base_fp = fingerprint_netlist(base)
    if base_fp != seed_trace.netlist_fingerprint:
        raise ServiceError(
            "seed trace does not belong to the supplied base netlist "
            f"(trace {seed_trace.netlist_fingerprint[:12]}, "
            f"base {base_fp[:12]})"
        )

    with Timer() as timer, trace.span("incremental.detect"):
        with trace.span("incremental.diff"):
            if delta is None:
                delta = diff(base, new)
        region = dirty_region(new, delta)
        jobs = plan_seed_jobs(new, config)
        provenance = dict(
            base_fingerprint=base_fp,
            delta_fingerprint=delta_fingerprint(base_fp, delta),
            dirty_cells=len(region.cells),
            dirty_fraction=region.fraction,
        )
        reason = _full_fallback_reason(base, new, seed_trace, delta, region, jobs)
        if reason is not None:
            if trace.enabled():
                trace.counter("incremental.full_fallbacks").add(1)
            result = _traced_run(new, config, jobs, pool, reason=reason, **provenance)
        else:
            known = {
                index: outcome
                for index, (job, outcome) in enumerate(
                    zip(seed_trace.jobs, seed_trace.outcomes)
                )
                if job == jobs[index] and not region.intersects(outcome[3])
            }
            with trace.span(
                "incremental.patch",
                dirty_seeds=len(jobs) - len(known),
                total_seeds=len(jobs),
            ):
                result = _traced_run(
                    new, config, jobs, pool, known,
                    mode="incremental", **provenance,
                )
            if trace.enabled():
                trace.counter("incremental.seeds_reused").add(len(known))
                trace.counter("incremental.seeds_recomputed").add(
                    result.seeds_recomputed
                )
    result.report = replace(result.report, runtime_seconds=timer.elapsed)
    return result


# ----------------------------------------------------------------------
# Store-backed entry point
# ----------------------------------------------------------------------
def load_trace(store: ResultStore, job_fp: str) -> Optional[SeedTrace]:
    """The persisted :class:`SeedTrace` of job ``job_fp``, or ``None``."""
    payload = store.get_payload(_trace_key(job_fp), kind=KIND_FINDER_TRACE)
    if payload is None:
        return None
    try:
        return SeedTrace.from_dict(payload)
    except ServiceError:
        store.evict(_trace_key(job_fp))
        return None


def _persist(
    store: ResultStore,
    netlist: Netlist,
    config: FinderConfig,
    job_fp: str,
    result: IncrementalResult,
) -> None:
    """Write trace, provenance, head pointer and design pack.

    The report itself is the flow's to record, under the same ``job_fp``.
    """
    if result.trace is not None:
        store.put_payload(
            _trace_key(job_fp),
            result.trace.to_dict(),
            kind=KIND_FINDER_TRACE,
            num_items=len(result.trace.jobs),
            runtime_seconds=result.report.runtime_seconds,
        )
    if result.mode == "incremental":
        store.put_payload(
            _provenance_key(job_fp),
            result.provenance(),
            kind=KIND_INCREMENTAL_PROVENANCE,
            num_items=result.dirty_cells,
        )
    netlist_fp = fingerprint_netlist(netlist)
    store.put_payload(
        _head_key(fingerprint_config(config)),
        {"netlist_fingerprint": netlist_fp},
        kind=KIND_INCREMENTAL_HEAD,
    )
    designs.write_pack(store, netlist, netlist_fp)


def run_with_reuse(
    netlist: Netlist,
    config: FinderConfig,
    store: Optional[ResultStore],
    *,
    base: Optional[Netlist] = None,
    base_fingerprint: str = "",
    delta: Optional[NetlistDelta] = None,
    pool: Optional[Any] = None,
) -> IncrementalResult:
    """Compute a detection the report cache missed, patching when sound.

    A base (explicit ``base``/``base_fingerprint``, or the per-config head
    pointer) with a persisted seed trace and design blob is patched by
    :func:`incremental_detect` (``incremental``, or ``full`` with the
    fall-back reason); otherwise this is a full traced run (``full``).
    Deterministic runs persist their trace and head pointer (and, for
    patched reports, a provenance row) so the *next* edit finds its base;
    without a store or a pinned seed it is a full traced run that persists
    nothing.  Looking up and recording the report is the caller's flow's
    job (:class:`~repro.flow.stages.IncrementalDetectStage`).
    """
    if store is None or config.seed is None:
        reason = "no result store" if store is None else "unpinned seed"
        return _traced_run(
            netlist, config, plan_seed_jobs(netlist, config), pool, reason=reason
        )

    reason, seed_trace = "no traced base run", None
    base_fp = base_fingerprint
    if base is not None and not base_fp:
        base_fp = fingerprint_netlist(base)
    if not base_fp:
        head = store.get_payload(
            _head_key(fingerprint_config(config)), kind=KIND_INCREMENTAL_HEAD
        )
        base_fp = str((head or {}).get("netlist_fingerprint", ""))
    # An "edit" that is the identical netlist has nothing to patch from.
    if base_fp and base_fp != fingerprint_netlist(netlist):
        seed_trace = load_trace(
            store, job_fingerprint(netlist, config, netlist_fingerprint=base_fp)
        )
    path = designs.pack_path(store, base_fp)
    if seed_trace is not None and base is None and os.path.exists(path):
        # An unloadable pack is removed, so the full run this falls back
        # to writes a sound one in its place.
        base = designs.load_pack(store, base_fp)
        if base is None:
            reason = f"unloadable base pack {path} removed"

    if seed_trace is not None and base is not None:
        result = incremental_detect(
            base, netlist, seed_trace, config, delta=delta, pool=pool
        )
    else:
        result = _traced_run(
            netlist, config, plan_seed_jobs(netlist, config), pool, reason=reason
        )
    _persist(store, netlist, config, job_fingerprint(netlist, config), result)
    return result


def detect_with_reuse(
    netlist: Netlist,
    config: FinderConfig,
    store: Optional[ResultStore],
    *,
    base: Optional[Netlist] = None,
    base_fingerprint: str = "",
    delta: Optional[NetlistDelta] = None,
    pool: Optional[Any] = None,
) -> IncrementalResult:
    """Detect on ``netlist``, reusing whatever the store makes sound.

    Runs the one-stage flow ``Flow([IncrementalDetectStage(...)])``: the
    exact report answers from the store (``cached``); a miss goes through
    :func:`run_with_reuse` (``incremental`` or ``full``) and the flow
    records the report under :func:`job_fingerprint`, the key every other
    detection entry point uses too.  Without a store there is nothing to
    look up or record: this is :func:`run_with_reuse`'s full traced run.
    """
    from repro.flow.flow import Flow
    from repro.flow.stages import IncrementalDetectStage

    if store is None:
        return run_with_reuse(netlist, config, None, pool=pool)
    stage = IncrementalDetectStage(config)
    stage.base, stage.base_fingerprint, stage.delta = base, base_fingerprint, delta
    outcome = Flow([stage], name="detect").run(netlist, store=store, pool=pool)
    return stage.incremental_result(outcome.results[0])


__all__ = [
    "FULL_THRESHOLD",
    "KIND_FINDER_TRACE",
    "KIND_INCREMENTAL_HEAD",
    "KIND_INCREMENTAL_PROVENANCE",
    "TRACE_VERSION",
    "IncrementalResult",
    "SeedTrace",
    "detect_with_reuse",
    "incremental_detect",
    "load_trace",
    "run_traced",
    "run_with_reuse",
]
