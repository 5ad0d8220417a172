"""Stable content fingerprints for netlists, configs and flow stages.

The service and flow layers recognize repeated work by hashing *content* —
not object identity — so a design loaded twice (or in two different
processes) maps to the same cache entry.  Hashes are SHA-256 over a
canonical byte stream, which makes them stable across process restarts and
machines (unlike the builtin ``hash``, which Python salts per process for
strings).

Three levels of key:

* :func:`fingerprint_netlist` — the full content of a design, one bulk
  hash over its canonical CSR arrays and name tables (no Python walk over
  cells or nets);
* :func:`fingerprint_frozen_config` — any frozen config dataclass, over
  all of its fields (a config holds only what decides the result; how
  many processes compute it is the worker pool's business);
* :func:`stage_fingerprint` — one flow stage: its name, its config
  fingerprint and the fingerprints of everything upstream of it (the
  design plus every prior stage), so *any* stage artifact — not just a
  detection report — is content-addressable.

There is one fingerprint space for detection: :func:`job_fingerprint` is
the ``"detect"`` stage fingerprint over the design alone, so ``repro
batch``, ``sweep``, ``flow run``, ``detect`` and daemon submits all key
the same ``(design, config)`` report under the same row.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Optional, Sequence

import numpy as np

from repro.finder.config import FinderConfig
from repro.netlist.hypergraph import Netlist

#: Bump when the canonical serialization (or the meaning of a report) changes
#: so stale persisted caches are never read back under a new scheme.
FINGERPRINT_VERSION = 2

#: :meth:`Netlist.derived` key memoizing :func:`fingerprint_netlist`.
#: Netlists are immutable, so the fingerprint is computed at most once per
#: object — and pack-file loads seed it straight from the header, making
#: cache lookups on mmap-loaded designs O(1) instead of O(content).
FINGERPRINT_CACHE_KEY = "netlist-fingerprint-v%d" % FINGERPRINT_VERSION


def _hash_update_str(digest: "hashlib._Hash", text: str) -> None:
    data = text.encode("utf-8")
    digest.update(len(data).to_bytes(8, "little"))
    digest.update(data)


def fingerprint_netlist(netlist: Netlist) -> str:
    """SHA-256 fingerprint of a netlist's full content.

    One hash over the canonical sections, in this order: ``net_ptr``,
    ``net_cells``, ``areas``, ``pin_counts``, ``fixed_mask``, then the
    cell and the net name tables (offsets, then UTF-8 blob), all
    little-endian, each prefixed with its byte length, after the cell and
    net counts.  That covers every cell's name and attributes and every
    net's name and members in index order (netlists are immutable, so
    index order is part of the content); the derived arrays are left out.
    Every netlist stores exactly these sections, so a builder-made,
    pack-loaded, spliced or pickled copy of one design shares one
    fingerprint.

    Memoized with :meth:`Netlist.derived` (immutability makes that sound);
    pack files store this very fingerprint in their header, so loading one
    pre-seeds the memo and no hash is computed at all.
    """
    return netlist.derived(FINGERPRINT_CACHE_KEY, lambda: _hash_netlist(netlist))


def _hash_netlist(netlist: Netlist) -> str:
    """The :func:`fingerprint_netlist` digest, computed from the content."""
    arrays = netlist.arrays
    cell_table, net_table = netlist.cell_table, netlist.net_table
    digest = hashlib.sha256()
    digest.update(b"repro-netlist-v%d" % FINGERPRINT_VERSION)
    digest.update(netlist.num_cells.to_bytes(8, "little"))
    digest.update(netlist.num_nets.to_bytes(8, "little"))
    for section, dtype in (
        (arrays.net_ptr, "<i8"),
        (arrays.net_cells, "<i8"),
        (arrays.areas, "<f8"),
        (arrays.pin_counts, "<i8"),
        (arrays.fixed_mask, "|b1"),
        (cell_table.offsets, "<i8"),
        (cell_table.blob, "|u1"),
        (net_table.offsets, "<i8"),
        (net_table.blob, "|u1"),
    ):
        data = np.ascontiguousarray(section, dtype=dtype)
        digest.update(data.nbytes.to_bytes(8, "little"))
        digest.update(data)
    return digest.hexdigest()


def _normalize_config_value(value, field_type) -> object:
    """Canonical JSON-safe form of one config field value.

    Integers land where floats are expected whenever configs come from JSON
    manifests (``2`` for ``2.0``); equal configs must fingerprint
    identically no matter where they were parsed.  Scalars are normalized
    to their declared field type — recursively through nested dataclasses
    (e.g. a ``Die`` inside a place config) — and declared-int fields are
    left untouched (coercing them through float would alias large seeds).
    Inside containers (grids, groups, pad coordinates) no declared type is
    available, so *every* non-bool int is canonicalized to float; container
    ints are cell indices, tile counts and coordinates, all far below the
    2**53 bound where that would alias distinct values.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _normalize_config_value(
                getattr(value, field.name), field.type
            )
            for field in dataclasses.fields(value)
        }
    if isinstance(value, (list, tuple)):
        return [_normalize_config_value(item, "float") for item in value]
    if isinstance(value, dict):
        return {
            key: _normalize_config_value(item, "float")
            for key, item in value.items()
        }
    type_name = field_type if isinstance(field_type, str) else getattr(
        field_type, "__name__", str(field_type)
    )
    if (
        isinstance(value, int)
        and not isinstance(value, bool)
        and "float" in type_name
    ):
        return float(value)
    return value


def fingerprint_frozen_config(config) -> str:
    """SHA-256 fingerprint of any frozen config dataclass.

    The canonical form is a sorted compact-JSON dump of the config's
    fields, numeric values normalized to their declared types (see
    :func:`_normalize_config_value`), with the config's class name mixed
    in (two stage configs with identical fields must not collide).
    """
    fields = {
        field.name: _normalize_config_value(getattr(config, field.name), field.type)
        for field in dataclasses.fields(config)
    }
    canonical = json.dumps(fields, sort_keys=True, separators=(",", ":"), default=list)
    digest = hashlib.sha256()
    digest.update(b"repro-config-v%d" % FINGERPRINT_VERSION)
    _hash_update_str(digest, type(config).__name__)
    digest.update(canonical.encode("utf-8"))
    return digest.hexdigest()


def fingerprint_config(config: FinderConfig) -> str:
    """SHA-256 fingerprint of a :class:`FinderConfig`."""
    return fingerprint_frozen_config(config)


def stage_fingerprint(
    stage_name: str,
    config_fingerprint: str,
    input_fingerprints: Sequence[str],
) -> str:
    """Fingerprint of one flow stage's output.

    ``input_fingerprints`` carries everything the stage can observe: the
    design fingerprint plus, in order, the fingerprint of every stage that
    ran before it.  Any upstream change therefore re-keys every downstream
    artifact — the conservative (always sound) invalidation rule.
    """
    digest = hashlib.sha256()
    digest.update(b"repro-stage-v%d" % FINGERPRINT_VERSION)
    _hash_update_str(digest, stage_name)
    _hash_update_str(digest, config_fingerprint)
    digest.update(len(input_fingerprints).to_bytes(8, "little"))
    for fingerprint in input_fingerprints:
        _hash_update_str(digest, fingerprint)
    return digest.hexdigest()


def job_fingerprint(
    netlist: Netlist,
    config: FinderConfig,
    netlist_fingerprint: Optional[str] = None,
) -> str:
    """Fingerprint of one detection (netlist content x config content).

    It is the fingerprint of a ``detect`` stage
    (:class:`~repro.flow.stages.DetectStage`, the one detection stage)
    that runs first in a flow, so every entry point shares one cache row
    per ``(design, config)``.
    ``netlist_fingerprint`` names the design by its fingerprint instead,
    for callers that hold no netlist (a base design known only by its
    fingerprint).
    """
    return stage_fingerprint(
        "detect",
        fingerprint_config(config),
        [netlist_fingerprint or fingerprint_netlist(netlist)],
    )
