"""Design packs: where a cache dir keeps its designs.

Every pack of a design lives at ``<cache_dir>/designs/<fingerprint>.nla``
(:func:`pack_path`), is written once (:func:`write_pack`) and loaded
through ``mmap`` (:func:`load_pack`).  Two writers fill it:

* the incremental engine packs every design it traces, so a later
  ``repro detect --base <fingerprint>`` (or the per-config head pointer)
  diffs against it without the original file;
* ``repro pack MANIFEST --cache-dir DIR`` packs text designs ahead of
  time (:func:`pack_source`) and records one ``design_source`` row per
  source file: its absolute path -> fingerprint plus the file's
  ``(mtime_ns, size)`` at pack time.

The daemon's design cache serves a text design from its pack while the
source row still matches the file's stat (:func:`load_source`); a touched
source is parsed again, never served from a stale pack.  A design packed
ahead of time is the one the engine finds on its first detect, so it is
never written twice.  A pack that cannot be loaded (cut short, or of an
older format) is removed with a warning and reads as absent, so the next
writer puts a sound one in its place.
"""

from __future__ import annotations

import contextlib
import logging
import os
from typing import Optional, Tuple

import repro.io as rio
from repro.errors import ParseError
from repro.netlist.hypergraph import Netlist
from repro.service.fingerprint import fingerprint_netlist
from repro.service.store import ResultStore

logger = logging.getLogger(__name__)

#: ``kind`` tag of the rows mapping a pre-packed source file to its pack.
KIND_DESIGN_SOURCE = "design_source"


def pack_path(store: ResultStore, fingerprint: str) -> str:
    """Where the pack of the design with ``fingerprint`` lives."""
    return os.path.join(
        store.cache_dir, "designs", f"{fingerprint}{rio.PACKED_EXTENSION}"
    )


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


def _current(path: str, fingerprint: str) -> bool:
    """True when ``path`` is a pack of this build's format carrying
    ``fingerprint`` (a header read)."""
    try:
        return rio.read_header(path).fingerprint == fingerprint
    except (OSError, ParseError):
        return False


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
    "KIND_DESIGN_SOURCE",
    "load_pack",
    "load_source",
    "pack_path",
    "pack_source",
    "stat_signature",
    "write_pack",
]
