"""Design records: how a cache dir gets a design back by its fingerprint.

A detection that persists its seed trace also makes its design resolvable
(:func:`record`), so a later ``repro detect --base <fingerprint>``, the
head pointer of a config, cell name table and pin total or a daemon
delta submit can diff against it without the original file.  Each fingerprint
resolves (:func:`resolve`) through one of three records, the cheapest
that applies:

* a **reference** (``design_reference`` row): the design was mmap-loaded
  from a live ``.nla`` outside the cache dir, so the row keeps its path
  and nothing is copied.  On use the file's header must still carry the
  fingerprint; a file that is gone or now holds another design reads as
  a miss and its row is evicted.
* an **edit** (``design_edit`` row): a patched edit of a design that has a
  pack or a reference, kept as base fingerprint plus canonical delta.
  Rebuilding it is one splice, checked against the recorded fingerprint;
  a splice that gives another design evicts the row.  A second row
  (``design_edit_target``) maps ``delta_fingerprint(base, delta)`` to the
  edited fingerprint (:func:`edit_target`), so the daemon answers a
  repeated delta submit from the store without splicing.  An edit's base
  is never itself an edit, so a design is at most one splice away.
* a **pack** at ``<cache_dir>/designs/<fingerprint>.nla``
  (:func:`pack_path`), written once (:func:`write_pack`) and loaded
  through ``mmap`` (:func:`load_pack`): every design no other record fits.

Records carry the fingerprint version (and edits the delta version); a
record of another version reads as a miss.  ``repro cache prune`` drops
rows only, so it never touches a referenced file outside the cache dir.

``repro pack MANIFEST --cache-dir DIR`` packs text designs ahead of time
(:func:`pack_source`) and records one ``design_source`` row per source
file: its absolute path -> fingerprint plus the file's ``(mtime_ns,
size)`` at pack time.  The daemon's design cache serves a text design
from its pack while the source row still matches the file's stat
(:func:`load_source`); a touched source is parsed again, never served
from a stale pack.  A design packed ahead of time is the one the engine
finds on its first detect, so it is never written twice.  A pack that
cannot be loaded (cut short, or of an older format) is removed with a
warning and reads as absent, so the next writer puts a sound one in its
place.
"""

from __future__ import annotations

import contextlib
import logging
import os
from typing import Any, Dict, Optional, Tuple

import repro.io as rio
from repro.errors import NetlistError, ParseError
from repro.incremental.delta import (
    DELTA_VERSION,
    NetlistDelta,
    apply_delta,
    delta_fingerprint,
)
from repro.netlist.hypergraph import Netlist
from repro.service.fingerprint import FINGERPRINT_VERSION, fingerprint_netlist
from repro.service.store import ResultStore

logger = logging.getLogger(__name__)

#: ``kind`` tag of the rows mapping a pre-packed source file to its pack.
KIND_DESIGN_SOURCE = "design_source"
#: ``kind`` tags of the design records that are not packs.
KIND_DESIGN_REFERENCE = "design_reference"
KIND_DESIGN_EDIT = "design_edit"
#: ``kind`` tag of the rows mapping an edit's delta fingerprint to the
#: fingerprint of the design it makes.
KIND_EDIT_TARGET = "design_edit_target"

#: The kinds of design record, as :func:`census` counts them.
PACK, REFERENCE, EDIT = "pack", "reference", "edit"


def _packs_dir(store: ResultStore) -> str:
    return os.path.join(store.cache_dir, "designs")


def pack_path(store: ResultStore, fingerprint: str) -> str:
    """Where the pack of the design with ``fingerprint`` lives."""
    return os.path.join(_packs_dir(store), f"{fingerprint}{rio.PACKED_EXTENSION}")


def write_pack(store: ResultStore, netlist: Netlist, fingerprint: str) -> None:
    """Pack ``netlist`` with ``fingerprint`` unless its pack exists."""
    path = pack_path(store, fingerprint)
    if os.path.exists(path):
        return
    os.makedirs(os.path.dirname(path), exist_ok=True)
    # Looked up on the module at call time, so a wrapper installed on
    # ``repro.io.write_packed`` (perfbench's ``io.pack`` layer) sees it.
    rio.write_packed(netlist, path)


def load_pack(store: ResultStore, fingerprint: str) -> Optional[Netlist]:
    """The packed design with ``fingerprint``, or ``None`` when there is
    no loadable pack (an unloadable one is removed with a warning)."""
    path = pack_path(store, fingerprint)
    try:
        return rio.load_packed(path)
    except FileNotFoundError:
        return None
    except (ParseError, OSError) as error:
        logger.warning("removing unloadable design pack %s: %s", path, error)
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
        return None


# ----------------------------------------------------------------------
# References and edits
# ----------------------------------------------------------------------
def _record_key(fingerprint: str) -> str:
    return f"design-{fingerprint}"


def _target_key(delta_fp: str) -> str:
    return f"edit-{delta_fp}"


def _stamp(edit: bool) -> Dict[str, int]:
    """The versions a record is written with and must carry to be read."""
    stamp = {"fingerprint_version": FINGERPRINT_VERSION}
    if edit:
        stamp["delta_version"] = DELTA_VERSION
    return stamp


#: Field -> type of every record shape (reference, edit, edit target).
_SHAPES = (
    {"path": str},
    {"base": str, "delta": dict, "delta_fingerprint": str},
    {"fingerprint": str},
)


def _read(store: ResultStore, key: str) -> Optional[Dict[str, Any]]:
    """The record row under ``key``; a malformed row, or one of another
    fingerprint or delta version, is evicted and reads as a miss."""
    row = store.get_payload(key)
    if row is None:
        return None
    for shape in _SHAPES:
        if all(isinstance(row.get(name), kind) for name, kind in shape.items()):
            stamp = _stamp(edit="path" not in shape)
            if all(row.get(name) == value for name, value in stamp.items()):
                return row
            break
    store.evict(key)
    return None


def _current(path: str, fingerprint: str) -> bool:
    """True when ``path`` is a pack of this build's format carrying
    ``fingerprint`` (a header read)."""
    try:
        return rio.read_header(path).fingerprint == fingerprint
    except (OSError, ParseError):
        return False


def _live_pack(store: ResultStore, netlist: Netlist, fingerprint: str) -> Optional[str]:
    """The absolute path of the ``.nla`` outside the cache dir that
    ``netlist`` was loaded from, while its header carries ``fingerprint``."""
    if not netlist.source.lower().endswith(rio.PACKED_EXTENSION):
        return None
    path = os.path.abspath(netlist.source)
    cache_dir = os.path.realpath(store.cache_dir)
    if os.path.commonpath([cache_dir, os.path.realpath(path)]) == cache_dir:
        return None
    return path if _current(path, fingerprint) else None


def _is_root(store: ResultStore, fingerprint: str) -> bool:
    """True when ``fingerprint`` has a pack or a sound reference: what an
    edit record may name as its base."""
    if not fingerprint:
        return False
    if os.path.exists(pack_path(store, fingerprint)):
        return True
    row = _read(store, _record_key(fingerprint))
    return row is not None and "path" in row and _current(row["path"], fingerprint)


def record(
    store: ResultStore,
    netlist: Netlist,
    fingerprint: str,
    *,
    base_fingerprint: str = "",
    delta: Optional[NetlistDelta] = None,
) -> None:
    """Make the design ``netlist`` (of ``fingerprint``) resolvable.

    A design that has a pack keeps it.  Otherwise the first record that
    applies is written: a reference to the live ``.nla`` it was loaded
    from (unless that very reference is stored already), an edit of
    ``base_fingerprint`` by ``delta`` when that base has a pack or a
    reference, and a pack last.
    """
    if os.path.exists(pack_path(store, fingerprint)):
        return
    path = _live_pack(store, netlist, fingerprint)
    if path is not None:
        reference = {**_stamp(edit=False), "path": path}
        key = _record_key(fingerprint)
        # Every computed detect of the design records it: write the row once.
        if store.peek_payload(key, KIND_DESIGN_REFERENCE) != reference:
            store.put_payload(key, reference, kind=KIND_DESIGN_REFERENCE)
        return
    if delta is not None and _is_root(store, base_fingerprint):
        delta_fp = delta_fingerprint(base_fingerprint, delta)
        store.put_payload(
            _record_key(fingerprint),
            {**_stamp(edit=True), "base": base_fingerprint,
             "delta": delta.to_dict(), "delta_fingerprint": delta_fp},
            kind=KIND_DESIGN_EDIT,
            num_items=delta.num_edits,
        )
        store.put_payload(
            _target_key(delta_fp), {**_stamp(edit=True), "fingerprint": fingerprint},
            kind=KIND_EDIT_TARGET,
        )
        return
    write_pack(store, netlist, fingerprint)
    store.evict(_record_key(fingerprint))  # the pack supersedes any record


def edit_target(store: ResultStore, delta_fp: str) -> Optional[str]:
    """The fingerprint of the design an edit record with delta fingerprint
    ``delta_fp`` makes, or ``None`` when no such edit was recorded."""
    row = _read(store, _target_key(delta_fp))
    return None if row is None else row["fingerprint"]


def drop_edit_target(store: ResultStore, delta_fp: str) -> None:
    """Forget :func:`edit_target` of ``delta_fp`` (it named a wrong design)."""
    store.evict(_target_key(delta_fp))


def _load_reference(
    store: ResultStore, fingerprint: str, path: str
) -> Tuple[Optional[Netlist], str]:
    try:
        netlist = rio.load_packed(path)
    except FileNotFoundError:
        why = f"referenced design pack {path} is gone"
    except (OSError, ParseError) as error:
        why = f"referenced design pack {path} is unreadable: {error}"
    else:
        held = fingerprint_netlist(netlist)  # seeded from the header
        if held == fingerprint:
            return netlist, ""
        why = f"referenced design pack {path} now holds design {held[:12]}"
    logger.warning("dropping the design reference of %s: %s", fingerprint[:12], why)
    store.evict(_record_key(fingerprint))
    return None, why


def _resolve(
    store: ResultStore, fingerprint: str, splice: bool
) -> Tuple[Optional[Netlist], str]:
    if os.path.exists(pack_path(store, fingerprint)):
        netlist = load_pack(store, fingerprint)
        if netlist is None:
            return None, f"unloadable design pack {pack_path(store, fingerprint)} removed"
        return netlist, ""
    row = _read(store, _record_key(fingerprint))
    if row is not None and "path" in row:
        return _load_reference(store, fingerprint, row["path"])
    if row is None or "base" not in row or not splice:
        return None, f"no design record of {fingerprint[:12]}"
    base, why = _resolve(store, row["base"], splice=False)
    if base is None:
        return None, f"base of the edit record of {fingerprint[:12]}: {why}"
    try:
        netlist = apply_delta(base, NetlistDelta.from_dict(row["delta"]))
    except NetlistError as error:
        why = f"edit record of {fingerprint[:12]} does not apply: {error}"
    else:
        rebuilt = fingerprint_netlist(netlist)
        if rebuilt == fingerprint:
            return netlist, ""
        why = f"edit record of {fingerprint[:12]} rebuilds design {rebuilt[:12]}"
    logger.warning("evicting a bad design edit record: %s", why)
    store.evict(_record_key(fingerprint))
    drop_edit_target(store, row["delta_fingerprint"])
    return None, f"{why}; evicted"


def resolve(store: ResultStore, fingerprint: str) -> Tuple[Optional[Netlist], str]:
    """The design with ``fingerprint`` and ``""``, or ``None`` and why it
    cannot be had (no record, an unloadable pack, a stale reference, an
    edit that does not rebuild it).  Never raises for a bad record: it is
    evicted, so the caller runs in full and records the design afresh."""
    return _resolve(store, fingerprint, splice=True)


def census(store: ResultStore) -> Dict[str, Tuple[int, int]]:
    """``{record kind: (count, bytes)}`` of the cache dir's design records;
    only packs take bytes of their own."""
    sizes = []
    with contextlib.suppress(FileNotFoundError), os.scandir(_packs_dir(store)) as entries:
        sizes = [
            entry.stat().st_size for entry in entries
            if entry.name.endswith(rio.PACKED_EXTENSION)
        ]
    counts = store.kind_counts()
    return {
        PACK: (len(sizes), sum(sizes)),
        REFERENCE: (counts.get(KIND_DESIGN_REFERENCE, 0), 0),
        EDIT: (counts.get(KIND_DESIGN_EDIT, 0), 0),
    }


# ----------------------------------------------------------------------
# Pre-packed text sources
# ----------------------------------------------------------------------
def stat_signature(path: str) -> Tuple[int, int]:
    """``(mtime_ns, size)`` of ``path``: what a source row is checked by."""
    stat = os.stat(path)
    return stat.st_mtime_ns, stat.st_size


def _source_key(source: str) -> str:
    return f"source-{source}"


def _source_fingerprint(
    store: ResultStore, source: str, signature: Tuple[int, int]
) -> Optional[str]:
    """The fingerprint ``source``'s row records, when the row was written
    for a file of this ``signature``; a malformed row is evicted."""
    row = store.get_payload(_source_key(source), kind=KIND_DESIGN_SOURCE)
    if row is None:
        return None
    try:
        fingerprint = row["fingerprint"]
        recorded = (int(row["mtime_ns"]), int(row["size"]))
        if not isinstance(fingerprint, str):
            raise TypeError(f"fingerprint {fingerprint!r} is not a string")
    except (KeyError, TypeError, ValueError) as error:
        logger.warning("dropping malformed design_source row of %s: %s",
                       source, error)
        store.evict(_source_key(source))
        return None
    return fingerprint if recorded == signature else None


def load_source(
    store: ResultStore, source: str, signature: Tuple[int, int]
) -> Optional[Netlist]:
    """The pack of the absolute text design path ``source``, when
    :func:`pack_source` packed it and the file still stats as
    ``signature``; ``None`` means parse it."""
    fingerprint = _source_fingerprint(store, source, signature)
    return None if fingerprint is None else load_pack(store, fingerprint)


def pack_source(store: ResultStore, source: str) -> Tuple[str, bool]:
    """Pack the design file ``source`` into the store ahead of time.

    Returns ``(fingerprint, packed)``.  A source whose row matches its
    stat and whose pack is current is left alone (``packed`` False); a
    new or touched source is parsed, its pack written unless a current
    one exists (an older-format pack is replaced), and its row recorded.
    """
    source = os.path.abspath(source)
    if not os.path.isfile(source):
        raise ParseError("design file does not exist", path=source)
    signature = stat_signature(source)
    fingerprint = _source_fingerprint(store, source, signature)
    if fingerprint is not None and _current(pack_path(store, fingerprint), fingerprint):
        return fingerprint, False
    netlist = rio.load_design(source)
    fingerprint = fingerprint_netlist(netlist)
    path = pack_path(store, fingerprint)
    if not _current(path, fingerprint):
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
        write_pack(store, netlist, fingerprint)
    store.put_payload(
        _source_key(source),
        {"fingerprint": fingerprint, "mtime_ns": signature[0],
         "size": signature[1]},
        kind=KIND_DESIGN_SOURCE,
    )
    return fingerprint, True


__all__ = [
    "EDIT",
    "KIND_DESIGN_EDIT",
    "KIND_DESIGN_REFERENCE",
    "KIND_DESIGN_SOURCE",
    "KIND_EDIT_TARGET",
    "PACK",
    "REFERENCE",
    "census",
    "drop_edit_target",
    "edit_target",
    "load_pack",
    "load_source",
    "pack_path",
    "pack_source",
    "record",
    "resolve",
    "stat_signature",
    "write_pack",
]
