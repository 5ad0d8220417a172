"""Lossless JSON codecs for every stage artifact kind.

Extends the PR-1 report codec idea to the whole pipeline: each artifact
kind (finder report, partition, placement, congestion map, netlist,
resynthesis result) registers an ``encode(artifact) -> dict`` /
``decode(payload, ctx) -> artifact`` pair.  Python's ``json`` round-trips
floats exactly (shortest-repr), so decoded artifacts are bit-identical to
the originals — the cache-hit path of a flow returns exactly what the
compute path produced.

Payloads are versioned (``codec_version``); decoding a payload written by
an older codec raises :class:`~repro.errors.FlowError`, which the flow
layer converts into a cache miss + rewrite.  A finder report versions
itself (its codec's ``version`` field), so its payload is stored bare:
a ``finder_report`` row is exactly the report JSON that batch output and
daemon responses carry, and compares equal to it.  Decoders receive the
:class:`~repro.flow.context.FlowContext` because some artifacts reference
the design itself (a :class:`Placement` holds its netlist), which is
already fingerprint-addressed and never serialized twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.errors import FlowError, ReproError
from repro.netlist.builder import NetlistBuilder
from repro.netlist.hypergraph import Netlist
from repro.partition.fm import PartitionResult
from repro.placement.placer import Placement
from repro.placement.region import Die
from repro.routing.congestion import CongestionMap
from repro.service.codec import report_from_dict, report_to_dict
from repro.service.store import KIND_FINDER_REPORT

#: Bump when any artifact payload shape changes; older payloads then decode
#: as cache misses and are rewritten.
ARTIFACT_CODEC_VERSION = 1

KIND_PARTITION = "partition"
KIND_PLACEMENT = "placement"
KIND_CONGESTION = "congestion"
KIND_NETLIST = "netlist"
KIND_RESYNTHESIS = "resynthesis"


@dataclass(frozen=True)
class ResynthesisResult:
    """Artifact of the resynthesis stage.

    Attributes:
        netlist: the re-instantiated design (wide gates decomposed).
        mapping: old cell index -> new cell indices that replaced it.
    """

    netlist: Netlist
    mapping: Dict[int, List[int]]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ResynthesisResult):
            return NotImplemented
        return self.mapping == other.mapping and _netlist_payload(
            self.netlist
        ) == _netlist_payload(other.netlist)


# ----------------------------------------------------------------------
# Netlist
# ----------------------------------------------------------------------
def _netlist_payload(netlist: Netlist) -> Dict[str, Any]:
    return {
        "cells": [
            [
                netlist.cell_name(c),
                netlist.cell_area(c),
                netlist.cell_pin_count(c),
                netlist.cell_is_fixed(c),
            ]
            for c in range(netlist.num_cells)
        ],
        "nets": [
            [netlist.net_name(n), list(netlist.cells_of_net(n))]
            for n in range(netlist.num_nets)
        ],
    }


def _netlist_from_payload(data: Dict[str, Any]) -> Netlist:
    builder = NetlistBuilder()
    for name, area, pin_count, fixed in data["cells"]:
        builder.add_cell(name=name, area=area, pin_count=pin_count, fixed=fixed)
    for name, members in data["nets"]:
        builder.add_net(name, members)
    return builder.build()


# ----------------------------------------------------------------------
# Per-kind encoders/decoders (raw payload body, no version envelope)
# ----------------------------------------------------------------------
def _encode_report(report) -> Dict[str, Any]:
    return report_to_dict(report)


def _decode_report(data: Dict[str, Any], ctx):
    return report_from_dict(data)


def _encode_partition(result: PartitionResult) -> Dict[str, Any]:
    return {
        "sides": [[cell, side] for cell, side in sorted(result.sides.items())],
        "cut": result.cut,
        "passes": result.passes,
    }


def _decode_partition(data: Dict[str, Any], ctx) -> PartitionResult:
    return PartitionResult(
        sides={cell: side for cell, side in data["sides"]},
        cut=data["cut"],
        passes=data["passes"],
    )


def _encode_placement(placement: Placement) -> Dict[str, Any]:
    die = placement.die
    return {
        "die": [die.width, die.height, die.num_rows],
        "x": [float(v) for v in placement.x],
        "y": [float(v) for v in placement.y],
    }


def _decode_placement(data: Dict[str, Any], ctx) -> Placement:
    width, height, num_rows = data["die"]
    return Placement(
        netlist=ctx.netlist,
        die=Die(width=width, height=height, num_rows=num_rows),
        x=np.asarray(data["x"], dtype=np.float64),
        y=np.asarray(data["y"], dtype=np.float64),
    )


def _encode_congestion(cmap: CongestionMap) -> Dict[str, Any]:
    return {
        "demand": [[float(v) for v in row] for row in cmap.demand],
        "capacity": cmap.capacity,
        "tile_width": cmap.tile_width,
        "tile_height": cmap.tile_height,
        "net_boxes": [list(b) if b is not None else None for b in cmap.net_boxes],
    }


def _decode_congestion(data: Dict[str, Any], ctx) -> CongestionMap:
    return CongestionMap(
        demand=np.asarray(data["demand"], dtype=np.float64),
        capacity=data["capacity"],
        tile_width=data["tile_width"],
        tile_height=data["tile_height"],
        net_boxes=[tuple(b) if b is not None else None for b in data["net_boxes"]],
    )


def _encode_netlist(netlist: Netlist) -> Dict[str, Any]:
    return _netlist_payload(netlist)


def _decode_netlist(data: Dict[str, Any], ctx) -> Netlist:
    return _netlist_from_payload(data)


def _encode_resynthesis(result: ResynthesisResult) -> Dict[str, Any]:
    return {
        "netlist": _netlist_payload(result.netlist),
        "mapping": [[old, list(new)] for old, new in sorted(result.mapping.items())],
    }


def _decode_resynthesis(data: Dict[str, Any], ctx) -> ResynthesisResult:
    return ResynthesisResult(
        netlist=_netlist_from_payload(data["netlist"]),
        mapping={old: list(new) for old, new in data["mapping"]},
    )


_Encoder = Callable[[Any], Dict[str, Any]]
_Decoder = Callable[[Dict[str, Any], Any], Any]

_CODECS: Dict[str, Tuple[_Encoder, _Decoder]] = {
    KIND_FINDER_REPORT: (_encode_report, _decode_report),
    KIND_PARTITION: (_encode_partition, _decode_partition),
    KIND_PLACEMENT: (_encode_placement, _decode_placement),
    KIND_CONGESTION: (_encode_congestion, _decode_congestion),
    KIND_NETLIST: (_encode_netlist, _decode_netlist),
    KIND_RESYNTHESIS: (_encode_resynthesis, _decode_resynthesis),
}


#: Kinds whose codec checks its own payload version; they get no
#: ``codec_version``/``kind`` envelope.  Report rows that still carry one
#: (written by earlier flows) decode the same.
_SELF_VERSIONED = frozenset({KIND_FINDER_REPORT})


def artifact_kinds() -> Tuple[str, ...]:
    """All registered artifact kinds."""
    return tuple(_CODECS)


def encode_artifact(kind: str, artifact: Any) -> Dict[str, Any]:
    """Versioned JSON-safe payload of ``artifact``."""
    if kind not in _CODECS:
        raise FlowError(f"unknown artifact kind {kind!r}; known: {sorted(_CODECS)}")
    payload = _CODECS[kind][0](artifact)
    if kind not in _SELF_VERSIONED:
        payload["codec_version"] = ARTIFACT_CODEC_VERSION
        payload["kind"] = kind
    return payload


def decode_artifact(kind: str, payload: Dict[str, Any], ctx) -> Any:
    """Rebuild an artifact from a payload produced by :func:`encode_artifact`.

    Raises :class:`FlowError` on a kind/version mismatch or a malformed
    payload — the flow layer treats that as a cache miss, not a crash.
    """
    if kind not in _CODECS:
        raise FlowError(f"unknown artifact kind {kind!r}; known: {sorted(_CODECS)}")
    if kind not in _SELF_VERSIONED:
        version = payload.get("codec_version")
        if version != ARTIFACT_CODEC_VERSION:
            raise FlowError(
                f"artifact payload codec version {version!r} is not the current "
                f"{ARTIFACT_CODEC_VERSION}; treating the entry as stale"
            )
        if payload.get("kind") != kind:
            raise FlowError(
                f"artifact payload kind {payload.get('kind')!r} does not match "
                f"the requested kind {kind!r}"
            )
    try:
        return _CODECS[kind][1](payload, ctx)
    except ReproError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise FlowError(f"malformed {kind} artifact payload: {error}") from error


__all__ = [
    "ARTIFACT_CODEC_VERSION",
    "ResynthesisResult",
    "artifact_kinds",
    "encode_artifact",
    "decode_artifact",
    "KIND_FINDER_REPORT",
    "KIND_PARTITION",
    "KIND_PLACEMENT",
    "KIND_CONGESTION",
    "KIND_NETLIST",
    "KIND_RESYNTHESIS",
]
