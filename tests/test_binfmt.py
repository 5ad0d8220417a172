"""The binary pack format: round trips, zero-copy loads, validation.

A pack blob must reproduce the source netlist bit-for-bit (arrays, names,
attributes and content fingerprint) whether it is rebuilt from bytes,
mmap-loaded from disk or re-packed from another pack file — under both
compute backends.  Malformed inputs must fail with typed
:class:`~repro.errors.ParseError`\\ s that name the file and, for magic
mismatches, the expected magic.
"""

import os
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ParseError
from repro.io import binfmt, load_design, pack_design
from repro.io.binfmt import (
    FORMAT_VERSION,
    MAGIC,
    load_packed,
    netlist_from_bytes,
    packed_fingerprint,
    read_header,
    serialize_netlist,
    write_packed,
)
from repro.io.hgr import write_hgr
from repro.netlist import Netlist, NetlistBuilder
from repro.netlist.backend import forced_backend
from repro.service.fingerprint import fingerprint_netlist


# ---------------------------------------------------------------- helpers
@st.composite
def netlists(draw):
    """Small random netlists: mixed areas/pin counts/fixed flags, odd names."""
    num_cells = draw(st.integers(min_value=1, max_value=24))
    builder = NetlistBuilder()
    for index in range(num_cells):
        builder.add_cell(
            name=draw(
                st.sampled_from([f"c{index}", f"ünïc{index}", f"a/b[{index}]"])
            ),
            area=draw(st.sampled_from([0.5, 1.0, 2.25])),
            pin_count=draw(st.one_of(st.none(), st.integers(16, 24))),
            fixed=draw(st.booleans()),
        )
    for _ in range(draw(st.integers(min_value=0, max_value=16))):
        members = draw(
            st.lists(
                st.integers(0, num_cells - 1), min_size=1, max_size=6, unique=True
            )
        )
        builder.add_net(None, members)
    return builder.build()


def _assert_bit_identical(loaded, original):
    """Arrays, names, attributes and fingerprint all agree exactly."""
    fresh, view = original.arrays, loaded.arrays
    for field in vars(fresh):
        a, b = getattr(fresh, field), getattr(view, field)
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    assert loaded.num_cells == original.num_cells
    assert loaded.num_nets == original.num_nets
    assert loaded.num_pins == original.num_pins
    for cell in range(original.num_cells):
        assert loaded.cell_name(cell) == original.cell_name(cell)
        assert loaded.cell_area(cell) == original.cell_area(cell)
        assert loaded.cell_pin_count(cell) == original.cell_pin_count(cell)
        assert loaded.cell_is_fixed(cell) == original.cell_is_fixed(cell)
        assert loaded.nets_of_cell(cell) == original.nets_of_cell(cell)
        assert loaded.neighbors(cell) == original.neighbors(cell)
    for net in range(original.num_nets):
        assert loaded.net_name(net) == original.net_name(net)
        assert loaded.cells_of_net(net) == original.cells_of_net(net)
    assert loaded == original
    assert original == loaded
    assert fingerprint_netlist(loaded) == fingerprint_netlist(original)


# ---------------------------------------------------------------- round trips
@settings(max_examples=40, deadline=None)
@given(netlists())
def test_bytes_roundtrip_bit_identical(netlist):
    loaded = netlist_from_bytes(serialize_netlist(netlist))
    assert isinstance(loaded, Netlist)
    _assert_bit_identical(loaded, netlist)


@pytest.mark.parametrize("backend", ["numpy", "python"])
def test_mmap_roundtrip_both_backends(tmp_path, mixed_netlist, backend):
    path = str(tmp_path / "design.nla")
    with forced_backend(backend):
        write_packed(mixed_netlist, path)
        loaded = load_packed(path)
        _assert_bit_identical(loaded, mixed_netlist)
        assert loaded.source == path


def test_header_fingerprint_matches_content(tmp_path, small_planted):
    netlist, _ = small_planted
    path = str(tmp_path / "planted.nla")
    write_packed(netlist, path)
    # The header fingerprint is readable without touching the payload and
    # equals a full content walk of both the original and the loaded view.
    assert packed_fingerprint(path) == fingerprint_netlist(netlist)
    header = read_header(path)
    assert header.version == FORMAT_VERSION
    assert header.num_cells == netlist.num_cells
    assert header.num_pins == netlist.num_pins
    loaded = load_packed(path)
    loaded.derived_cache.clear()  # force a recompute, not the seeded memo
    assert fingerprint_netlist(loaded) == header.fingerprint


def test_load_design_dispatches_packed(tmp_path, mixed_netlist):
    path = str(tmp_path / "design.nla")
    write_packed(mixed_netlist, path)
    loaded = load_design(path)
    assert isinstance(loaded, Netlist)
    assert loaded == mixed_netlist


def test_pack_design_parse_once(tmp_path, mixed_netlist):
    source = str(tmp_path / "design.hgr")
    write_hgr(mixed_netlist, source)
    packed = str(tmp_path / "design.nla")
    pack_design(source, packed)
    reference = load_design(source)
    _assert_bit_identical(load_packed(packed), reference)
    # Packing a pack file is a lossless re-pack.
    repacked = str(tmp_path / "again.nla")
    pack_design(packed, repacked)
    _assert_bit_identical(load_packed(repacked), reference)


def test_pack_design_rejects_bad_extension(tmp_path, mixed_netlist):
    source = str(tmp_path / "design.hgr")
    write_hgr(mixed_netlist, source)
    with pytest.raises(ParseError, match=r"\.nla"):
        pack_design(source, str(tmp_path / "design.bin"))


def test_packed_netlist_pickles_through_blob(tmp_path, mixed_netlist):
    path = str(tmp_path / "design.nla")
    write_packed(mixed_netlist, path)
    loaded = load_packed(path)
    clone = pickle.loads(pickle.dumps(loaded))
    assert isinstance(clone, Netlist)
    _assert_bit_identical(clone, mixed_netlist)


def test_loaded_arrays_are_readonly(tmp_path, mixed_netlist):
    path = str(tmp_path / "design.nla")
    write_packed(mixed_netlist, path)
    loaded = load_packed(path)
    with pytest.raises(ValueError):
        loaded.arrays.net_cells[0] = 3


# ---------------------------------------------------------------- validation
def _packed(tmp_path, netlist, name="design.nla"):
    path = str(tmp_path / name)
    write_packed(netlist, path)
    return path


def test_bad_magic_names_file_and_expected_magic(tmp_path, mixed_netlist):
    path = _packed(tmp_path, mixed_netlist)
    blob = bytearray(open(path, "rb").read())
    blob[:8] = b"NOTAPACK"
    open(path, "wb").write(blob)
    with pytest.raises(ParseError) as excinfo:
        load_packed(path)
    message = str(excinfo.value)
    assert path in message
    assert repr(MAGIC) in message


def test_version_mismatch_is_rejected(tmp_path, mixed_netlist):
    path = _packed(tmp_path, mixed_netlist)
    blob = bytearray(open(path, "rb").read())
    struct.pack_into("<I", blob, 8, FORMAT_VERSION + 41)
    open(path, "wb").write(blob)
    with pytest.raises(ParseError) as excinfo:
        read_header(path)
    message = str(excinfo.value)
    assert path in message
    assert f"version {FORMAT_VERSION + 41}" in message


def test_format_1_packs_are_rejected_naming_both_versions(tmp_path, mixed_netlist):
    """Format 2 stamps the bulk fingerprint; a format-1 file must be
    re-packed, never read with its old-scheme fingerprint."""
    path = _packed(tmp_path, mixed_netlist)
    blob = bytearray(open(path, "rb").read())
    struct.pack_into("<I", blob, 8, 1)
    open(path, "wb").write(blob)
    with pytest.raises(ParseError, match="version 1; this build reads version 2"):
        load_packed(path)


def test_write_packed_never_leaves_a_partial_pack(tmp_path, mixed_netlist, monkeypatch):
    """The pack is written beside ``path`` and renamed over it: a failed
    write keeps the previous file whole and leaves no temporary behind."""
    path = _packed(tmp_path, mixed_netlist)
    before = open(path, "rb").read()
    builder = NetlistBuilder()
    builder.add_net("n", [builder.add_cell("x"), builder.add_cell("y")])

    def interrupted(source, destination):
        raise OSError("interrupted before the rename")

    monkeypatch.setattr(binfmt.os, "replace", interrupted)
    with pytest.raises(OSError, match="interrupted"):
        write_packed(builder.build(), path)
    monkeypatch.undo()
    assert open(path, "rb").read() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [os.path.basename(path)]
    write_packed(builder.build(), path)
    assert load_packed(path).num_cells == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == [os.path.basename(path)]


def test_truncated_payload_is_rejected(tmp_path, mixed_netlist):
    path = _packed(tmp_path, mixed_netlist)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[: len(blob) - 16])
    with pytest.raises(ParseError, match="truncated"):
        load_packed(path)


def test_truncated_header_is_rejected(tmp_path, mixed_netlist):
    path = _packed(tmp_path, mixed_netlist)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:20])  # fixed header + a sliver of JSON
    with pytest.raises(ParseError, match="truncated"):
        read_header(path)


def test_empty_file_is_rejected(tmp_path):
    path = str(tmp_path / "empty.nla")
    open(path, "wb").close()
    with pytest.raises(ParseError) as excinfo:
        load_packed(path)
    message = str(excinfo.value)
    assert path in message
    assert repr(MAGIC) in message


def test_corrupt_json_header_is_rejected(tmp_path, mixed_netlist):
    path = _packed(tmp_path, mixed_netlist)
    blob = bytearray(open(path, "rb").read())
    blob[16:24] = b"{broken!"
    open(path, "wb").write(blob)
    with pytest.raises(ParseError, match="header"):
        read_header(path)


def test_section_shape_mismatch_is_rejected(tmp_path, mixed_netlist):
    path = _packed(tmp_path, mixed_netlist)
    blob = bytearray(open(path, "rb").read())
    # Lie about the cell count: section shapes no longer match the counts.
    header_len = struct.unpack_from("<I", blob, 12)[0]
    header = blob[16:16 + header_len].decode("utf-8")
    mutated = header.replace(
        f'"num_cells":{mixed_netlist.num_cells}',
        f'"num_cells":{mixed_netlist.num_cells + 1}',
    )
    assert mutated != header
    blob[16:16 + header_len] = mutated.encode("utf-8")
    open(path, "wb").write(blob)
    with pytest.raises(ParseError, match="shape"):
        read_header(path)
