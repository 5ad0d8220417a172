"""Versioned binary container for :class:`~repro.netlist.arrays.NetlistArrays`.

One layout serves everything that moves a design between processes: pack
files on disk (``.nla``, loaded zero-copy through ``mmap``) — which is also
how :mod:`repro.service.pool` reaches its workers, through the design's own
pack file or an anonymous one it writes — and the pickle form of a
:class:`~repro.netlist.hypergraph.Netlist`, which is this blob.  A loaded
netlist keeps its arrays and name tables as views into the blob.

Layout (all integers little-endian)::

    offset 0   magic       8 bytes   b"REPRONLA"
    offset 8   version     uint32    FORMAT_VERSION
    offset 12  header_len  uint32    byte length of the JSON header
    offset 16  header      UTF-8 JSON (see below)
    ...        payload     sections, each 64-byte aligned, starting at
                           align64(16 + header_len)

The JSON header carries the design's SHA-256 content fingerprint (exactly
:func:`repro.service.fingerprint.fingerprint_netlist` of the packed
netlist), the cell/net/pin counts, the payload byte length and one entry
per section: ``{"dtype": "<i8", "shape": [n], "offset": o, "nbytes": b}``
with offsets relative to the payload base.  Everything cache-relevant —
the fingerprint in particular — is therefore readable from the header
alone, without faulting in a single payload page.

This build writes and reads format 2.  Its layout is that of format 1;
only the stamped fingerprint changed scheme, to the bulk hash over the
canonical array sections (``FINGERPRINT_VERSION`` 2).  A format-1 file
would carry a fingerprint that names its content under the old scheme,
so it is rejected with a :class:`~repro.errors.ParseError` naming both
versions and must be re-packed (``repro pack``).

Sections are the nine :class:`NetlistArrays` fields plus four name-table
arrays (UTF-8 blob + int64 offsets for cell and net names):

========================  ========  =======================================
section                   dtype     shape
========================  ========  =======================================
``net_ptr``               ``<i8``   ``num_nets + 1``
``net_cells``             ``<i8``   ``num_incidences``
``cell_ptr``              ``<i8``   ``num_cells + 1``
``cell_nets``             ``<i8``   ``num_incidences``
``net_degrees``           ``<i8``   ``num_nets``
``pin_net``               ``<i8``   ``num_incidences``
``areas``                 ``<f8``   ``num_cells``
``pin_counts``            ``<i8``   ``num_cells``
``fixed_mask``            ``|b1``   ``num_cells``
``cell_name_offsets``     ``<i8``   ``num_cells + 1``
``cell_name_bytes``       ``|u1``   (total encoded cell-name bytes)
``net_name_offsets``      ``<i8``   ``num_nets + 1``
``net_name_bytes``        ``|u1``   (total encoded net-name bytes)
========================  ========  =======================================

Derived arrays (``net_degrees``, ``pin_net``) are stored rather than
recomputed so that *every* array a worker touches stays a view into the
shared mapping — recomputing them would cost O(pins) private memory per
process, exactly what this format exists to avoid.

All validation failures raise :class:`~repro.errors.ParseError` naming
the offending file and, where relevant, the expected magic/version.
"""

from __future__ import annotations

import json
import mmap
import os
import secrets
import struct
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

import numpy as np

from repro.errors import ParseError
from repro.netlist.arrays import NameTable, NetlistArrays
from repro.netlist.hypergraph import Netlist

#: First 8 bytes of every pack file / blob.
MAGIC = b"REPRONLA"

#: Bump on any layout change, or when the header fingerprint's scheme
#: changes; readers reject other versions.
FORMAT_VERSION = 2

#: File extension registered with :func:`repro.io.load_design`.
PACKED_EXTENSION = ".nla"

_FIXED = struct.Struct("<8sII")  # magic, version, header_len
_ALIGN = 64

#: Required section name -> dtype string (also the serialization order).
SECTION_DTYPES = {
    "net_ptr": "<i8",
    "net_cells": "<i8",
    "cell_ptr": "<i8",
    "cell_nets": "<i8",
    "net_degrees": "<i8",
    "pin_net": "<i8",
    "areas": "<f8",
    "pin_counts": "<i8",
    "fixed_mask": "|b1",
    "cell_name_offsets": "<i8",
    "cell_name_bytes": "|u1",
    "net_name_offsets": "<i8",
    "net_name_bytes": "|u1",
}

_ARRAY_FIELDS = (
    "net_ptr",
    "net_cells",
    "cell_ptr",
    "cell_nets",
    "net_degrees",
    "pin_net",
    "areas",
    "pin_counts",
    "fixed_mask",
)


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass(frozen=True)
class Section:
    """Location of one array inside the payload (offset is payload-relative)."""

    dtype: str
    shape: Tuple[int, ...]
    offset: int
    nbytes: int


@dataclass(frozen=True)
class PackedHeader:
    """Parsed header of one pack blob — everything except the arrays.

    ``fingerprint`` is the design's content fingerprint
    (:func:`~repro.service.fingerprint.fingerprint_netlist`), stamped at
    pack time; reading it never materializes payload pages.
    """

    version: int
    fingerprint: str
    num_cells: int
    num_nets: int
    num_pins: int
    payload_base: int
    payload_bytes: int
    sections: Mapping[str, Section]

    @property
    def total_bytes(self) -> int:
        """Minimum valid blob size (header + payload)."""
        return self.payload_base + self.payload_bytes


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
def _section_arrays(netlist: Netlist) -> Dict[str, np.ndarray]:
    """The thirteen section arrays of ``netlist``, in layout order."""
    arrays = netlist.arrays
    cell_table, net_table = netlist.cell_table, netlist.net_table
    sections = {name: getattr(arrays, name) for name in _ARRAY_FIELDS}
    sections["cell_name_offsets"] = cell_table.offsets
    sections["cell_name_bytes"] = cell_table.blob
    sections["net_name_offsets"] = net_table.offsets
    sections["net_name_bytes"] = net_table.blob
    return sections


def serialize_netlist(netlist: Netlist) -> bytes:
    """One contiguous pack blob (header + payload) for ``netlist``.

    The identical bytes work as a ``.nla`` file or a pickle payload.  The
    content fingerprint is computed here (or taken from the netlist's
    memoized value) and stamped into the header.
    """
    from repro.service.fingerprint import fingerprint_netlist

    sections = _section_arrays(netlist)
    specs: Dict[str, Dict] = {}
    offset = 0
    for name, array in sections.items():
        expected = SECTION_DTYPES[name]
        if array.dtype.str != expected:
            raise ParseError(
                f"section {name!r} has dtype {array.dtype.str}, expected "
                f"{expected} (non-little-endian platforms are unsupported)"
            )
        offset = _align(offset)
        specs[name] = {
            "dtype": expected,
            "shape": [int(dim) for dim in array.shape],
            "offset": offset,
            "nbytes": int(array.nbytes),
        }
        offset += int(array.nbytes)
    payload_bytes = offset

    header = {
        "version": FORMAT_VERSION,
        "fingerprint": fingerprint_netlist(netlist),
        "num_cells": netlist.num_cells,
        "num_nets": netlist.num_nets,
        "num_pins": netlist.num_pins,
        "payload_bytes": payload_bytes,
        "sections": specs,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    payload_base = _align(_FIXED.size + len(header_bytes))

    blob = bytearray(payload_base + payload_bytes)
    _FIXED.pack_into(blob, 0, MAGIC, FORMAT_VERSION, len(header_bytes))
    blob[_FIXED.size:_FIXED.size + len(header_bytes)] = header_bytes
    for name, array in sections.items():
        start = payload_base + specs[name]["offset"]
        blob[start:start + specs[name]["nbytes"]] = np.ascontiguousarray(
            array
        ).tobytes()
    return bytes(blob)


def write_packed(netlist: Netlist, path: str) -> int:
    """Write ``netlist`` as a pack file at ``path``; returns bytes written.

    The blob goes to a temporary file in the same directory, which then
    replaces ``path`` in one rename: a writer killed mid-way leaves at
    most a stray ``*.tmp`` file, never a truncated pack under ``path``.
    """
    blob = serialize_netlist(netlist)
    temp = f"{path}.{os.getpid()}.{secrets.token_hex(4)}.tmp"
    try:
        with open(temp, "xb") as handle:
            handle.write(blob)
        os.replace(temp, path)
    except BaseException:
        if os.path.exists(temp):
            os.unlink(temp)
        raise
    return len(blob)


# ----------------------------------------------------------------------
# Header parsing / validation
# ----------------------------------------------------------------------
def _parse_header(buf, size: int, source: str) -> PackedHeader:
    if size < _FIXED.size:
        raise ParseError(
            f"file is {size} byte(s), too short for the {_FIXED.size}-byte "
            f"fixed header (expected magic {MAGIC!r})",
            path=source,
        )
    magic, version, header_len = _FIXED.unpack_from(buf, 0)
    if magic != MAGIC:
        raise ParseError(
            f"bad magic {bytes(magic)!r}; expected {MAGIC!r} "
            f"(NetlistArrays pack file)",
            path=source,
        )
    if version != FORMAT_VERSION:
        raise ParseError(
            f"unsupported pack format version {version}; this build reads "
            f"version {FORMAT_VERSION}",
            path=source,
        )
    if _FIXED.size + header_len > size:
        raise ParseError(
            f"truncated header: needs {_FIXED.size + header_len} bytes, "
            f"file has {size}",
            path=source,
        )
    try:
        header = json.loads(bytes(buf[_FIXED.size:_FIXED.size + header_len]))
    except ValueError as error:
        raise ParseError(f"corrupt JSON header: {error}", path=source) from None

    try:
        sections = {
            name: Section(
                dtype=str(spec["dtype"]),
                shape=tuple(int(dim) for dim in spec["shape"]),
                offset=int(spec["offset"]),
                nbytes=int(spec["nbytes"]),
            )
            for name, spec in header["sections"].items()
        }
        parsed = PackedHeader(
            version=int(header["version"]),
            fingerprint=str(header["fingerprint"]),
            num_cells=int(header["num_cells"]),
            num_nets=int(header["num_nets"]),
            num_pins=int(header["num_pins"]),
            payload_base=_align(_FIXED.size + header_len),
            payload_bytes=int(header["payload_bytes"]),
            sections=sections,
        )
    except (KeyError, TypeError, ValueError) as error:
        raise ParseError(f"malformed header: {error!r}", path=source) from None

    if set(sections) != set(SECTION_DTYPES):
        missing = sorted(set(SECTION_DTYPES) - set(sections))
        extra = sorted(set(sections) - set(SECTION_DTYPES))
        raise ParseError(
            f"header sections do not match the format: missing {missing}, "
            f"unknown {extra}",
            path=source,
        )
    if parsed.total_bytes > size:
        raise ParseError(
            f"truncated payload: header promises {parsed.total_bytes} bytes, "
            f"file has {size}",
            path=source,
        )
    for name, section in sections.items():
        if section.dtype != SECTION_DTYPES[name]:
            raise ParseError(
                f"section {name!r} has dtype {section.dtype}, expected "
                f"{SECTION_DTYPES[name]}",
                path=source,
            )
        expected_nbytes = int(
            np.prod(section.shape, dtype=np.int64) * np.dtype(section.dtype).itemsize
        )
        if section.nbytes != expected_nbytes:
            raise ParseError(
                f"section {name!r} declares {section.nbytes} bytes for shape "
                f"{section.shape} ({expected_nbytes} expected)",
                path=source,
            )
        if section.offset < 0 or section.offset + section.nbytes > parsed.payload_bytes:
            raise ParseError(
                f"section {name!r} extends outside the payload "
                f"([{section.offset}, {section.offset + section.nbytes}) of "
                f"{parsed.payload_bytes})",
                path=source,
            )
    counts = {
        "net_ptr": parsed.num_nets + 1,
        "cell_ptr": parsed.num_cells + 1,
        "net_degrees": parsed.num_nets,
        "areas": parsed.num_cells,
        "pin_counts": parsed.num_cells,
        "fixed_mask": parsed.num_cells,
        "cell_name_offsets": parsed.num_cells + 1,
        "net_name_offsets": parsed.num_nets + 1,
    }
    for name, expected_len in counts.items():
        if sections[name].shape != (expected_len,):
            raise ParseError(
                f"section {name!r} has shape {sections[name].shape}; header "
                f"counts require ({expected_len},)",
                path=source,
            )
    return parsed


def read_header(path: str) -> PackedHeader:
    """Parse and validate the header of the pack file at ``path``.

    Reads only the header bytes — the payload is never touched, which is
    what makes header-level fingerprint checks effectively free.
    """
    with open(path, "rb") as handle:
        prefix = handle.read(_FIXED.size)
        if len(prefix) >= _FIXED.size:
            _, _, header_len = _FIXED.unpack_from(prefix, 0)
            prefix += handle.read(header_len)
        handle.seek(0, 2)
        size = handle.tell()
    return _parse_header(prefix, size, path)


def packed_fingerprint(path: str) -> str:
    """Content fingerprint of a pack file, from the header alone."""
    return read_header(path).fingerprint


# ----------------------------------------------------------------------
# Zero-copy loading
# ----------------------------------------------------------------------
def _views(buf, header: PackedHeader) -> Dict[str, np.ndarray]:
    views = {}
    for name, section in header.sections.items():
        views[name] = np.frombuffer(
            buf,
            dtype=np.dtype(section.dtype),
            count=section.shape[0],
            offset=header.payload_base + section.offset,
        )
    return views


def _netlist_from_views(
    views: Dict[str, np.ndarray],
    fingerprint: str,
    owner: object,
    source: str,
) -> Netlist:
    arrays = NetlistArrays(**{name: views[name] for name in _ARRAY_FIELDS})
    for array in vars(arrays).values():
        array.setflags(write=False)
    for name in ("cell_name_offsets", "cell_name_bytes",
                 "net_name_offsets", "net_name_bytes"):
        views[name].setflags(write=False)
    netlist = Netlist(
        arrays,
        NameTable(views["cell_name_offsets"], views["cell_name_bytes"]),
        NameTable(views["net_name_offsets"], views["net_name_bytes"]),
        owner=owner,
        source=source,
    )
    from repro.service.fingerprint import FINGERPRINT_CACHE_KEY

    netlist.derived(FINGERPRINT_CACHE_KEY, lambda: fingerprint)
    return netlist


def netlist_from_buffer(
    buf, source: str = "<buffer>", owner: object = None
) -> Netlist:
    """Build a :class:`Netlist` over ``buf`` without copying.

    ``buf`` is any buffer holding one pack blob (a ``bytes`` object, an
    ``mmap.mmap``, a memoryview).  Every array of the returned netlist is a
    read-only view into ``buf``; pass the object that keeps the buffer
    alive as ``owner``.
    """
    buf = buf if isinstance(buf, (bytes, bytearray, mmap.mmap)) else memoryview(buf)
    header = _parse_header(buf, len(buf), source)
    return _netlist_from_views(
        _views(buf, header), header.fingerprint, owner if owner is not None else buf,
        source,
    )


def netlist_from_bytes(blob: bytes) -> Netlist:
    """Rebuild a netlist from :func:`serialize_netlist` output (pickle hook)."""
    return netlist_from_buffer(blob, source="<pickled pack blob>", owner=blob)


def load_packed(path: str) -> Netlist:
    """Load a ``.nla`` pack file zero-copy through ``mmap``.

    The file's pages are faulted in on demand and shared read-only with
    every other process mapping the same file — cold-load time is bounded
    by disk, not by parsing, and the content fingerprint comes straight
    from the header (no re-hash).
    """
    with open(path, "rb") as handle:
        try:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:  # zero-length file: cannot be mapped
            raise ParseError(
                f"file is 0 byte(s), too short for the {_FIXED.size}-byte "
                f"fixed header (expected magic {MAGIC!r})",
                path=path,
            ) from None
    header = _parse_header(mapped, len(mapped), path)
    return _netlist_from_views(_views(mapped, header), header.fingerprint,
                               mapped, path)


__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "PACKED_EXTENSION",
    "PackedHeader",
    "Section",
    "SECTION_DTYPES",
    "load_packed",
    "netlist_from_buffer",
    "netlist_from_bytes",
    "packed_fingerprint",
    "read_header",
    "serialize_netlist",
    "write_packed",
]
