"""Pack-ahead corpora: pre-pack a manifest of designs for mmap serving.

``repro pack --out-dir packed/ manifest.json`` converts every design named
by a manifest into the binary ``.nla`` pack format once, ahead of time, and
writes a ``pack_index.json`` mapping each *source* path to its pack file
plus the source's ``(mtime_ns, size)`` stat at pack time.  A daemon started
with ``--pack-index packed/`` consults that index on every design load: a
request naming the original text design is served by mmap-loading the
pre-packed file instead of re-parsing text — provided the source file is
stat-identical to what was packed (a touched source falls back to a fresh
parse, never to a stale pack).

Packing is idempotent: a design whose pack file exists and whose source
stat matches the index entry is skipped on re-run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.errors import ParseError
from repro.io.binfmt import PACKED_EXTENSION, read_header
from repro.utils.jsonio import read_json_file

#: Index file written next to the pack files.
PACK_INDEX_NAME = "pack_index.json"

#: Index schema version.
PACK_INDEX_VERSION = 1


def _stat_signature(path: str) -> Tuple[int, int]:
    stat = os.stat(path)
    return stat.st_mtime_ns, stat.st_size


@dataclass(frozen=True)
class PackedEntry:
    """One corpus member: a source design and its pre-packed twin."""

    source: str
    pack_path: str
    fingerprint: str
    mtime_ns: int
    size: int
    packed: bool  # False when an up-to-date pack was reused

    def matches(self, path: str) -> bool:
        """True when ``path`` still stats exactly as it did at pack time."""
        try:
            return _stat_signature(path) == (self.mtime_ns, self.size)
        except OSError:
            return False


def corpus_designs_from_manifest(data: Any, base_dir: str) -> List[str]:
    """Design paths named by any of the repo's manifest dialects.

    Accepts ``{"designs": [...]}`` (sweep/flow manifests), ``{"jobs":
    [{"design": ...}, ...]}`` (batch manifests) or a bare JSON array of
    paths.  Paths resolve against ``base_dir`` and duplicates collapse.
    """
    if isinstance(data, dict):
        if isinstance(data.get("designs"), list):
            raw = data["designs"]
        elif isinstance(data.get("jobs"), list):
            raw = [
                entry.get("design")
                for entry in data["jobs"]
                if isinstance(entry, dict)
            ]
        else:
            raise ParseError(
                'pack manifest must carry "designs": [...] or "jobs": '
                '[{"design": ...}, ...]'
            )
    elif isinstance(data, list):
        raw = data
    else:
        raise ParseError("pack manifest must be a JSON object or array")

    designs: List[str] = []
    seen = set()
    for index, design in enumerate(raw):
        if not isinstance(design, str):
            raise ParseError(f"pack manifest design #{index} must be a string")
        path = design if os.path.isabs(design) else os.path.join(base_dir, design)
        path = os.path.abspath(path)
        if path not in seen:
            seen.add(path)
            designs.append(path)
    if not designs:
        raise ParseError("pack manifest names no designs")
    return designs


def _pack_name(source: str, taken: set) -> str:
    """Collision-free pack file name derived from the source stem."""
    stem = os.path.splitext(os.path.basename(source))[0]
    name = stem + PACKED_EXTENSION
    suffix = 2
    while name in taken:
        name = f"{stem}-{suffix}{PACKED_EXTENSION}"
        suffix += 1
    taken.add(name)
    return name


def pack_corpus(designs: Sequence[str], out_dir: str) -> List[PackedEntry]:
    """Pack every design into ``out_dir`` and (re)write the index.

    Designs already packed with a stat-matching index entry are reused,
    so re-running over a grown manifest only packs the new members; a
    pack this build cannot read (an older format) is packed afresh.
    Returns one :class:`PackedEntry` per design, in manifest order.
    """
    from repro.io import pack_design  # local import: io.__init__ imports us

    os.makedirs(out_dir, exist_ok=True)
    previous = {
        entry.source: entry for entry in load_pack_index(out_dir).values()
    }
    entries: List[PackedEntry] = []
    taken: set = set()
    for source in designs:
        source = os.path.abspath(source)
        if not os.path.isfile(source):
            raise ParseError("design file does not exist", path=source)
        mtime_ns, size = _stat_signature(source)
        old = previous.get(source)
        if (
            old is not None
            and (old.mtime_ns, old.size) == (mtime_ns, size)
            and _readable(old)
        ):
            taken.add(os.path.basename(old.pack_path))
            entries.append(
                PackedEntry(
                    source=source,
                    pack_path=old.pack_path,
                    fingerprint=old.fingerprint,
                    mtime_ns=mtime_ns,
                    size=size,
                    packed=False,
                )
            )
            continue
        pack_path = os.path.join(out_dir, _pack_name(source, taken))
        pack_design(source, pack_path)
        entries.append(
            PackedEntry(
                source=source,
                pack_path=os.path.abspath(pack_path),
                fingerprint=read_header(pack_path).fingerprint,
                mtime_ns=mtime_ns,
                size=size,
                packed=True,
            )
        )
    _write_index(out_dir, entries)
    return entries


def _readable(entry: PackedEntry) -> bool:
    """True when ``entry``'s pack exists, is of this build's format and
    still carries the fingerprint the index recorded (a header read)."""
    try:
        return read_header(entry.pack_path).fingerprint == entry.fingerprint
    except (OSError, ParseError):
        return False


def _write_index(out_dir: str, entries: Sequence[PackedEntry]) -> str:
    index_path = os.path.join(out_dir, PACK_INDEX_NAME)
    payload = {
        "version": PACK_INDEX_VERSION,
        "designs": {
            entry.source: {
                # Pack paths are stored relative to the index so a corpus
                # directory can be moved or mounted elsewhere wholesale.
                "pack": os.path.relpath(entry.pack_path, out_dir),
                "fingerprint": entry.fingerprint,
                "mtime_ns": entry.mtime_ns,
                "size": entry.size,
            }
            for entry in entries
        },
    }
    with open(index_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return index_path


def load_pack_index(path: str) -> Dict[str, PackedEntry]:
    """Load a corpus index: source abspath -> :class:`PackedEntry`.

    ``path`` may be the index file itself or the corpus directory holding
    it.  A missing index returns an empty mapping (a daemon started
    without a corpus just parses designs normally); a *malformed* one
    raises :class:`~repro.errors.ParseError`.
    """
    index_path = path
    if os.path.isdir(path):
        index_path = os.path.join(path, PACK_INDEX_NAME)
    if not os.path.exists(index_path):
        return {}
    data = read_json_file(index_path)
    if not isinstance(data, dict) or not isinstance(data.get("designs"), dict):
        raise ParseError(
            'pack index must be {"version": ..., "designs": {...}}',
            path=index_path,
        )
    if data.get("version") != PACK_INDEX_VERSION:
        raise ParseError(
            f"unsupported pack index version {data.get('version')!r} "
            f"(expected {PACK_INDEX_VERSION})",
            path=index_path,
        )
    base_dir = os.path.dirname(os.path.abspath(index_path))
    entries: Dict[str, PackedEntry] = {}
    for source, fields in data["designs"].items():
        try:
            entries[os.path.abspath(source)] = PackedEntry(
                source=os.path.abspath(source),
                pack_path=os.path.join(base_dir, fields["pack"]),
                fingerprint=fields["fingerprint"],
                mtime_ns=int(fields["mtime_ns"]),
                size=int(fields["size"]),
                packed=True,
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ParseError(
                f"malformed pack index entry for {source}: {error}",
                path=index_path,
            ) from error
    return entries


def pack_manifest(manifest_path: str, out_dir: str) -> List[PackedEntry]:
    """Pack every design named by ``manifest_path`` into ``out_dir``."""
    data = read_json_file(manifest_path)
    base_dir = os.path.dirname(os.path.abspath(manifest_path))
    return pack_corpus(corpus_designs_from_manifest(data, base_dir), out_dir)


__all__ = [
    "PACK_INDEX_NAME",
    "PACK_INDEX_VERSION",
    "PackedEntry",
    "corpus_designs_from_manifest",
    "load_pack_index",
    "pack_corpus",
    "pack_manifest",
]
