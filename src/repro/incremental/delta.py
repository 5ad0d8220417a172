"""Netlist deltas: structural diff, application, codec and fingerprints.

A :class:`NetlistDelta` is the name-keyed edit script between two netlists:
added / removed / attribute-changed cells and added / removed / rewired
nets, with net memberships carried as ordered cell-*name* lists so a delta
survives index shifts and can be shipped over the wire (the daemon's
``submit --delta`` path) without either netlist.

``diff(old, new)`` computes the delta; its CSR fast path compares the two
netlists' array backends when the cell and net name sequences line up
(the common ECO case: same elements, rewired pins), and a scalar
dict-based reference — selected by ``REPRO_SCALAR_BACKEND=1`` like every
other kernel, see :mod:`repro.netlist.backend` — produces identical
deltas.  ``apply_delta(base, delta)`` reconstructs the edited netlist, and
the two are inverses::

    fingerprint_netlist(apply_delta(old, diff(old, new)))
        == fingerprint_netlist(new)

``apply_delta`` is a splice on the numpy backend: it copies the base's
CSR arrays, overwrites the rewired net segments (or rebuilds ``net_ptr``
when nets, cells or degrees change), rebuilds the cell-major side with
one stable argsort of ``net_cells``, and shares the base's name tables
(and their name -> index dicts) when no cell or net is added or removed.
The splice and the builder make the result's arrays with one constructor,
:meth:`~repro.netlist.arrays.NetlistArrays.from_net_major`.  The scalar
backend replays the edited design through a
:class:`~repro.netlist.builder.NetlistBuilder`; that path is the
reference, and the splice returns equal content and raises the builder's
:class:`~repro.errors.NetlistError` for every invalid delta.  On both, a
delta that removes or changes a cell or net the base lacks is an error.

Edits are assumed order-preserving: surviving cells and nets keep their
relative order and added ones follow them (the invariant every generator
and ECO flow here obeys, and the layout ``apply_delta`` rebuilds).  When
the new order is anything else — survivors reordered, or an added name
ahead of a surviving one — ``diff`` degrades to a full-replacement delta:
still correct under ``apply_delta``, merely maximally conservative for the
dirty-region computation downstream.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import NetlistError
from repro.netlist.arrays import NameTable, NetlistArrays, gather_segments
from repro.netlist.backend import resolve_backend
from repro.netlist.builder import NetlistBuilder
from repro.netlist.hypergraph import Netlist

#: Version of the delta codec (wire format + fingerprint preimage).
DELTA_VERSION = 1


@dataclass(frozen=True)
class CellEdit:
    """Attributes of one added or changed cell (the *new* values)."""

    name: str
    area: float
    pin_count: int
    fixed: bool

    def to_row(self) -> List[Any]:
        return [self.name, self.area, self.pin_count, self.fixed]

    @classmethod
    def from_row(cls, row: Sequence[Any]) -> "CellEdit":
        name, area, pin_count, fixed = row
        return cls(str(name), float(area), int(pin_count), bool(fixed))


@dataclass(frozen=True)
class NetEdit:
    """One net edit; memberships are ordered tuples of cell names.

    ``old_members`` is ``None`` for an added net, ``new_members`` is
    ``None`` for a removed net, and both are set for a rewired net.
    """

    name: str
    old_members: Optional[Tuple[str, ...]] = None
    new_members: Optional[Tuple[str, ...]] = None

    def to_row(self) -> List[Any]:
        return [
            self.name,
            list(self.old_members) if self.old_members is not None else None,
            list(self.new_members) if self.new_members is not None else None,
        ]

    @classmethod
    def from_row(cls, row: Sequence[Any]) -> "NetEdit":
        name, old_members, new_members = row
        return cls(
            str(name),
            tuple(str(m) for m in old_members) if old_members is not None else None,
            tuple(str(m) for m in new_members) if new_members is not None else None,
        )


@dataclass(frozen=True)
class NetlistDelta:
    """The structural difference between two netlists, name-keyed."""

    cells_added: Tuple[CellEdit, ...] = ()
    cells_removed: Tuple[str, ...] = ()
    cells_changed: Tuple[CellEdit, ...] = ()
    nets_added: Tuple[NetEdit, ...] = ()
    nets_removed: Tuple[NetEdit, ...] = ()
    nets_changed: Tuple[NetEdit, ...] = ()

    @property
    def is_empty(self) -> bool:
        """True when the two netlists were structurally identical."""
        return not (
            self.cells_added or self.cells_removed or self.cells_changed
            or self.nets_added or self.nets_removed or self.nets_changed
        )

    @property
    def num_edits(self) -> int:
        """Total count of cell and net edits."""
        return (
            len(self.cells_added) + len(self.cells_removed)
            + len(self.cells_changed) + len(self.nets_added)
            + len(self.nets_removed) + len(self.nets_changed)
        )

    def summary(self) -> str:
        """One-line human-readable edit counts."""
        return (
            f"cells +{len(self.cells_added)} -{len(self.cells_removed)} "
            f"~{len(self.cells_changed)}, "
            f"nets +{len(self.nets_added)} -{len(self.nets_removed)} "
            f"~{len(self.nets_changed)}"
        )

    # -- codec ----------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe wire/storage form."""
        return {
            "version": DELTA_VERSION,
            "cells_added": [c.to_row() for c in self.cells_added],
            "cells_removed": list(self.cells_removed),
            "cells_changed": [c.to_row() for c in self.cells_changed],
            "nets_added": [n.to_row() for n in self.nets_added],
            "nets_removed": [n.to_row() for n in self.nets_removed],
            "nets_changed": [n.to_row() for n in self.nets_changed],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "NetlistDelta":
        if not isinstance(data, dict):
            raise NetlistError("netlist delta must be a JSON object")
        version = data.get("version")
        if version != DELTA_VERSION:
            raise NetlistError(
                f"unsupported netlist delta version {version!r} "
                f"(this build speaks {DELTA_VERSION})"
            )
        try:
            return cls(
                cells_added=tuple(
                    CellEdit.from_row(r) for r in data.get("cells_added", ())
                ),
                cells_removed=tuple(
                    str(n) for n in data.get("cells_removed", ())
                ),
                cells_changed=tuple(
                    CellEdit.from_row(r) for r in data.get("cells_changed", ())
                ),
                nets_added=tuple(
                    NetEdit.from_row(r) for r in data.get("nets_added", ())
                ),
                nets_removed=tuple(
                    NetEdit.from_row(r) for r in data.get("nets_removed", ())
                ),
                nets_changed=tuple(
                    NetEdit.from_row(r) for r in data.get("nets_changed", ())
                ),
            )
        except (TypeError, ValueError) as error:
            raise NetlistError(f"malformed netlist delta: {error}") from error


def delta_fingerprint(base_fingerprint: str, delta: NetlistDelta) -> str:
    """Content fingerprint of ``delta`` applied on top of a base netlist.

    Chains the base netlist's fingerprint with a canonical JSON encoding of
    the delta, so a patched report's provenance row names exactly one
    ``(base, edit)`` pair.
    """
    digest = hashlib.sha256()
    digest.update(f"repro-delta-v{DELTA_VERSION}:".encode("utf-8"))
    digest.update(base_fingerprint.encode("utf-8"))
    digest.update(
        json.dumps(delta.to_dict(), sort_keys=True, separators=(",", ":"))
        .encode("utf-8")
    )
    return digest.hexdigest()


# ----------------------------------------------------------------------
# diff
# ----------------------------------------------------------------------
def _cell_edit(netlist: Netlist, index: int) -> CellEdit:
    return CellEdit(
        name=netlist.cell_name(index),
        area=netlist.cell_area(index),
        pin_count=netlist.cell_pin_count(index),
        fixed=netlist.cell_is_fixed(index),
    )


def _member_names(netlist: Netlist, net: int) -> Tuple[str, ...]:
    """Member cell names of ``net``, read from the CSR arrays (no tuple
    adjacency is built)."""
    ptr = netlist.arrays.net_ptr
    members = netlist.arrays.net_cells[ptr[net]:ptr[net + 1]].tolist()
    return tuple(netlist.cell_name(c) for c in members)


def _order_preserved(old_names: Sequence[str], new_names: Sequence[str]) -> bool:
    """True when ``new_names`` is the surviving ``old_names`` in their old
    order followed by the added names: the layout :func:`apply_delta`
    rebuilds (survivors in base order, additions appended)."""
    new_set = set(new_names)
    survivors = [n for n in old_names if n in new_set]
    return list(new_names[: len(survivors)]) == survivors


def _full_replacement(old: Netlist, new: Netlist) -> NetlistDelta:
    """Everything-removed-everything-added delta (the out-of-order case)."""
    return NetlistDelta(
        cells_removed=old.cell_names,
        cells_added=tuple(_cell_edit(new, i) for i in range(new.num_cells)),
        nets_removed=tuple(
            NetEdit(old.net_name(i), old_members=_member_names(old, i))
            for i in range(old.num_nets)
        ),
        nets_added=tuple(
            NetEdit(new.net_name(i), new_members=_member_names(new, i))
            for i in range(new.num_nets)
        ),
    )


def _changed_cells_aligned_arrays(old: Netlist, new: Netlist) -> Tuple[CellEdit, ...]:
    """Attribute-changed cells when the cell name sequences are identical:
    three vectorized array compares instead of 53K accessor round-trips."""
    a, b = old.arrays, new.arrays
    mismatch = (
        (a.areas != b.areas)
        | (a.pin_counts != b.pin_counts)
        | (a.fixed_mask != b.fixed_mask)
    )
    return tuple(_cell_edit(new, int(i)) for i in np.nonzero(mismatch)[0])


def _changed_cells_aligned_scalar(old: Netlist, new: Netlist) -> Tuple[CellEdit, ...]:
    """Scalar reference of :func:`_changed_cells_aligned_arrays`."""
    return tuple(
        _cell_edit(new, i)
        for i in range(new.num_cells)
        if (
            old.cell_area(i) != new.cell_area(i)
            or old.cell_pin_count(i) != new.cell_pin_count(i)
            or old.cell_is_fixed(i) != new.cell_is_fixed(i)
        )
    )


def _diff_cells(
    old: Netlist,
    new: Netlist,
    old_names: Sequence[str],
    new_names: Sequence[str],
) -> Tuple[Tuple[CellEdit, ...], Tuple[str, ...], Tuple[CellEdit, ...]]:
    """General (added/removed/changed) cell diff for misaligned name sets."""
    old_set = set(old_names)
    new_set = set(new_names)
    removed = tuple(n for n in old_names if n not in new_set)
    added = tuple(
        _cell_edit(new, i)
        for i, n in enumerate(new_names)
        if n not in old_set
    )
    changed: List[CellEdit] = []
    for i, name in enumerate(new_names):
        if name not in old_set:
            continue
        j = old.cell_index(name)
        if (
            old.cell_area(j) != new.cell_area(i)
            or old.cell_pin_count(j) != new.cell_pin_count(i)
            or old.cell_is_fixed(j) != new.cell_is_fixed(i)
        ):
            changed.append(_cell_edit(new, i))
    return added, removed, tuple(changed)


def _changed_net_ids_arrays(old: Netlist, new: Netlist) -> List[int]:
    """Aligned-net mismatch detection on the CSR backends (same cell order,
    same net name sequence).  Returns the changed net indices, ascending."""
    a, b = old.arrays, new.arrays
    changed: set = set()
    same_degree = a.net_degrees == b.net_degrees
    changed.update(int(i) for i in np.nonzero(~same_degree)[0])
    if changed:
        # Degree drift shifts the CSR segments out of alignment; compare the
        # equal-degree nets segment-by-segment via one gather per side.
        equal_ids = np.nonzero(same_degree)[0].astype(np.int64)
        if equal_ids.size:
            lengths = a.net_degrees[equal_ids]
            seg_a = gather_segments(a.net_cells, a.net_ptr[equal_ids], lengths)
            seg_b = gather_segments(b.net_cells, b.net_ptr[equal_ids], lengths)
            mismatch = seg_a != seg_b
            if mismatch.any():
                owners = np.repeat(equal_ids, lengths)
                changed.update(int(i) for i in np.unique(owners[mismatch]))
    else:
        # Degrees identical everywhere: the flat member arrays are aligned
        # 1:1 and pin_net maps each mismatching slot to its net directly.
        mismatch = a.net_cells != b.net_cells
        if mismatch.any():
            changed.update(int(i) for i in np.unique(a.pin_net[mismatch]))
    return sorted(changed)


def _changed_net_ids_scalar(old: Netlist, new: Netlist) -> List[int]:
    """Scalar reference of :func:`_changed_net_ids_arrays`."""
    return [
        i
        for i in range(old.num_nets)
        if old.cells_of_net(i) != new.cells_of_net(i)
    ]


def diff(old: Netlist, new: Netlist) -> NetlistDelta:
    """Compute the :class:`NetlistDelta` turning ``old`` into ``new``.

    Both backends (see :mod:`repro.netlist.backend`) produce identical
    deltas.
    """
    backend = resolve_backend()
    old_cell_names = old.cell_names
    new_cell_names = new.cell_names
    old_net_names = old.net_names
    new_net_names = new.net_names

    cells_aligned = old_cell_names == new_cell_names
    nets_aligned = old_net_names == new_net_names

    if (
        not cells_aligned
        and not _order_preserved(old_cell_names, new_cell_names)
    ) or (
        not nets_aligned
        and not _order_preserved(old_net_names, new_net_names)
    ):
        return _full_replacement(old, new)

    if cells_aligned:
        cells_added: Tuple[CellEdit, ...] = ()
        cells_removed: Tuple[str, ...] = ()
        if backend == "numpy":
            cells_changed = _changed_cells_aligned_arrays(old, new)
        else:
            cells_changed = _changed_cells_aligned_scalar(old, new)
    else:
        cells_added, cells_removed, cells_changed = _diff_cells(
            old, new, old_cell_names, new_cell_names
        )

    aligned = cells_aligned and nets_aligned
    if aligned:
        if backend == "numpy":
            changed_ids = _changed_net_ids_arrays(old, new)
        else:
            changed_ids = _changed_net_ids_scalar(old, new)
        nets_added: Tuple[NetEdit, ...] = ()
        nets_removed: Tuple[NetEdit, ...] = ()
        nets_changed = tuple(
            NetEdit(
                old.net_name(i),
                old_members=_member_names(old, i),
                new_members=_member_names(new, i),
            )
            for i in changed_ids
        )
    else:
        old_net_set = set(old_net_names)
        new_net_set = set(new_net_names)
        nets_removed = tuple(
            NetEdit(name, old_members=_member_names(old, i))
            for i, name in enumerate(old_net_names)
            if name not in new_net_set
        )
        nets_added = tuple(
            NetEdit(name, new_members=_member_names(new, i))
            for i, name in enumerate(new_net_names)
            if name not in old_net_set
        )
        changed: List[NetEdit] = []
        for i, name in enumerate(new_net_names):
            if name not in old_net_set:
                continue
            j = old.net_index(name)
            old_members = _member_names(old, j)
            new_members = _member_names(new, i)
            if old_members != new_members:
                changed.append(
                    NetEdit(name, old_members=old_members, new_members=new_members)
                )
        nets_changed = tuple(changed)

    return NetlistDelta(
        cells_added=cells_added,
        cells_removed=cells_removed,
        cells_changed=cells_changed,
        nets_added=nets_added,
        nets_removed=nets_removed,
        nets_changed=nets_changed,
    )


# ----------------------------------------------------------------------
# apply
# ----------------------------------------------------------------------
def apply_delta(base: Netlist, delta: NetlistDelta) -> Netlist:
    """Rebuild the edited netlist from ``base`` and ``delta``.

    Surviving cells and nets keep their base order; added ones append in
    delta order — matching how every order-preserving edit flow (and
    :func:`diff` itself) lays the new netlist out.  A delta that removes
    or changes a cell or net ``base`` lacks (one meant for another base)
    raises :class:`NetlistError` naming the first such name.

    The numpy backend splices the delta into the base's CSR arrays
    (:func:`_apply_splice`); the scalar backend replays the edited design
    through a :class:`NetlistBuilder` (:func:`_apply_builder`), the
    reference.  Both return equal content and raise the same errors.
    """
    _require_targets(base, delta)
    if resolve_backend() == "numpy":
        return _apply_splice(base, delta)
    return _apply_builder(base, delta)


def _require_targets(base: Netlist, delta: NetlistDelta) -> None:
    """Raise :class:`NetlistError` for the first removed or changed cell,
    then net, that ``base`` does not have."""
    for kind, names, lookup in (
        ("cell", delta.cells_removed, base.cell_index),
        ("cell", [edit.name for edit in delta.cells_changed], base.cell_index),
        ("net", [edit.name for edit in delta.nets_removed], base.net_index),
        ("net", [edit.name for edit in delta.nets_changed], base.net_index),
    ):
        for name in names:
            try:
                lookup(name)
            except NetlistError:
                raise NetlistError(
                    f"delta edits {kind} {name!r}, which the base netlist "
                    f"lacks (a delta meant for another base?)"
                ) from None


def _apply_builder(base: Netlist, delta: NetlistDelta) -> Netlist:
    """Scalar reference of :func:`apply_delta`: replay through a builder."""
    removed_cells = set(delta.cells_removed)
    changed_cells = {c.name: c for c in delta.cells_changed}
    builder = NetlistBuilder()
    for index in range(base.num_cells):
        name = base.cell_name(index)
        if name in removed_cells:
            continue
        edit = changed_cells.get(name)
        if edit is not None:
            builder.add_cell(
                name=name, area=edit.area, pin_count=edit.pin_count,
                fixed=edit.fixed,
            )
        else:
            builder.add_cell(
                name=name,
                area=base.cell_area(index),
                pin_count=base.cell_pin_count(index),
                fixed=base.cell_is_fixed(index),
            )
    for edit in delta.cells_added:
        builder.add_cell(
            name=edit.name, area=edit.area, pin_count=edit.pin_count,
            fixed=edit.fixed,
        )

    removed_nets = {n.name for n in delta.nets_removed}
    changed_nets = {n.name: n for n in delta.nets_changed}

    def _indices(members: Tuple[str, ...], net_name: str) -> List[int]:
        try:
            return [builder.cell_index(m) for m in members]
        except NetlistError as error:
            raise NetlistError(
                f"delta net {net_name!r} references a missing cell: {error}"
            ) from error

    for index in range(base.num_nets):
        name = base.net_name(index)
        if name in removed_nets:
            continue
        edit = changed_nets.get(name)
        if edit is not None:
            if edit.new_members is None:
                raise NetlistError(
                    f"changed net {name!r} in delta carries no new members"
                )
            builder.add_net(name, _indices(edit.new_members, name))
        elif removed_cells:
            # Cell removals shift every later index; remap by name.
            builder.add_net(
                name,
                _indices(
                    tuple(base.cell_name(c) for c in base.cells_of_net(index)),
                    name,
                ),
            )
        else:
            builder.add_net(name, list(base.cells_of_net(index)))
    for edit in delta.nets_added:
        if edit.new_members is None:
            raise NetlistError(
                f"added net {edit.name!r} in delta carries no members"
            )
        builder.add_net(edit.name, _indices(edit.new_members, edit.name))

    return builder.build(drop_singleton_nets=False)


def _spliced_names(
    table: NameTable, keep: np.ndarray, extra: Sequence[str]
) -> NameTable:
    """``table`` restricted to the ``keep`` mask, then ``extra`` appended."""
    lengths = np.diff(table.offsets)[keep]
    kept = gather_segments(table.blob, table.offsets[:-1][keep], lengths)
    encoded = [name.encode("utf-8") for name in extra]
    lengths = np.concatenate(
        [lengths, np.fromiter(map(len, encoded), np.int64, len(encoded))]
    )
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    blob = np.concatenate(
        [kept, np.frombuffer(b"".join(encoded), dtype=np.uint8)]
    )
    return NameTable(offsets, blob)


def _apply_splice(base: Netlist, delta: NetlistDelta) -> Netlist:
    """:func:`apply_delta` on the numpy backend: splice the delta into the
    base's CSR arrays and name tables.

    Every validation of the builder path runs here too, vectorized where
    it covers the whole design, and the first failure in the builder's
    order (cells, then nets, then pin counts, each in new index order)
    raises the builder's message.
    """
    arrays = base.arrays
    cell_table, net_table = base.cell_table, base.net_table
    base_cell_index = cell_table.index()
    base_net_index = net_table.index()

    # -- cells: survivors in base order, then the added cells -----------
    removed = np.zeros(base.num_cells, dtype=bool)
    removed[[base_cell_index[name] for name in delta.cells_removed]] = True
    num_kept = base.num_cells - int(removed.sum())
    added = delta.cells_added
    num_cells = num_kept + len(added)
    added_index = {edit.name: num_kept + k for k, edit in enumerate(added)}
    remap = np.full(base.num_cells, -1, dtype=np.int64)
    remap[~removed] = np.arange(num_kept, dtype=np.int64)
    for name in delta.cells_removed:  # a removed name re-added by the delta
        if name in added_index:
            remap[base_cell_index[name]] = added_index[name]
    changed = {}  # new index -> CellEdit; the last edit of a name wins
    for edit in delta.cells_changed:
        old = base_cell_index[edit.name]
        if not removed[old]:
            changed[int(remap[old])] = edit

    if added or changed or num_kept != base.num_cells:
        areas = np.concatenate(
            [arrays.areas[~removed], [float(e.area) for e in added]]
        )
        pin_counts = np.concatenate(
            [arrays.pin_counts[~removed],
             np.array([e.pin_count for e in added], dtype=np.int64)]
        )
        fixed_mask = np.concatenate(
            [arrays.fixed_mask[~removed],
             np.array([bool(e.fixed) for e in added], dtype=bool)]
        )
        for index, edit in changed.items():
            areas[index] = edit.area
            pin_counts[index] = edit.pin_count
            fixed_mask[index] = bool(edit.fixed)
    else:
        areas, pin_counts = arrays.areas, arrays.pin_counts
        fixed_mask = arrays.fixed_mask

    def given(index: int) -> Tuple[str, Any, Any]:
        """Name, area and pin count of new cell ``index`` as the builder
        path would have passed them to ``add_cell``."""
        edit = added[index - num_kept] if index >= num_kept else changed.get(index)
        if edit is not None:
            return edit.name, edit.area, edit.pin_count
        old = int(np.flatnonzero(remap == index)[0])
        return cell_table.name(old), float(arrays.areas[old]), int(
            arrays.pin_counts[old]
        )

    bad = np.flatnonzero((areas <= 0) | (pin_counts < 0))
    first_bad = int(bad[0]) if bad.size else num_cells
    seen = set()
    for index, edit in enumerate(added, start=num_kept):
        if index > first_bad:
            break
        old = base_cell_index.get(edit.name)
        if edit.name in seen or (old is not None and not removed[old]):
            raise NetlistError(f"duplicate cell name {edit.name!r}")
        seen.add(edit.name)
    if bad.size:
        name, area, pin_count = given(first_bad)
        if area <= 0:
            raise NetlistError(f"cell {name!r} has non-positive area {area}")
        raise NetlistError(f"cell {name!r} has negative pin count {pin_count}")

    def cell_of(name: str) -> int:
        index = added_index.get(name)
        if index is None:
            old = base_cell_index.get(name)
            index = -1 if old is None else int(remap[old])
        return index

    # -- nets: survivors in base order, then the added nets -------------
    removed_nets = np.zeros(base.num_nets, dtype=bool)
    removed_nets[[base_net_index[edit.name] for edit in delta.nets_removed]] = True
    num_kept_nets = base.num_nets - int(removed_nets.sum())
    num_nets = num_kept_nets + len(delta.nets_added)
    net_remap = np.full(base.num_nets, -1, dtype=np.int64)
    net_remap[~removed_nets] = np.arange(num_kept_nets, dtype=np.int64)
    explicit = {}  # new net index -> (NetEdit, added?); last edit wins
    for edit in delta.nets_changed:
        old = base_net_index[edit.name]
        if not removed_nets[old]:
            explicit[int(net_remap[old])] = (edit, False)
    for k, edit in enumerate(delta.nets_added):
        explicit[num_kept_nets + k] = (edit, True)

    # Pins of nets left as they are whose cell the delta removed.
    untouched = ~removed_nets
    untouched[[base_net_index[e.name] for e, was_added in explicit.values()
               if not was_added]] = False
    lost = np.empty(0, dtype=np.int64)
    if num_kept != base.num_cells:
        lost = np.flatnonzero(
            (remap[arrays.net_cells] < 0) & untouched[arrays.pin_net]
        )
    first_lost = int(net_remap[arrays.pin_net[lost[0]]]) if lost.size else num_nets

    def missing(net: str, member: str) -> NetlistError:
        return NetlistError(
            f"delta net {net!r} references a missing cell: "
            f"unknown cell name {member!r}"
        )

    members = {}  # new net index -> resolved, de-duplicated cell indices
    added_nets = set()
    for index in sorted(explicit):
        if index > first_lost:
            break
        edit, was_added = explicit[index]
        if edit.new_members is None:
            raise NetlistError(
                f"added net {edit.name!r} in delta carries no members"
                if was_added
                else f"changed net {edit.name!r} in delta carries no new members"
            )
        resolved = []
        for name in edit.new_members:
            cell = cell_of(name)
            if cell < 0:
                raise missing(edit.name, name)
            resolved.append(cell)
        if was_added:
            old = base_net_index.get(edit.name)
            if edit.name in added_nets or (
                old is not None and not removed_nets[old]
            ):
                raise NetlistError(f"duplicate net name {edit.name!r}")
            added_nets.add(edit.name)
        if not resolved:
            raise NetlistError(f"net {edit.name!r} has no cells")
        members[index] = list(dict.fromkeys(resolved))
    if lost.size:
        pin = int(lost[0])
        raise missing(
            net_table.name(int(arrays.pin_net[pin])),
            cell_table.name(int(arrays.net_cells[pin])),
        )

    # -- net-major CSR ---------------------------------------------------
    if (
        num_kept == base.num_cells
        and num_kept_nets == num_nets == base.num_nets
        and all(len(cells) == arrays.net_degrees[index]
                for index, cells in members.items())
    ):
        # No cell shifted, same nets, same degrees: overwrite the segments.
        net_ptr = arrays.net_ptr
        net_cells = arrays.net_cells.copy()
        for index, cells in members.items():
            net_cells[net_ptr[index]:net_ptr[index + 1]] = cells
    else:
        net_degrees = np.empty(num_nets, dtype=np.int64)
        net_degrees[:num_kept_nets] = arrays.net_degrees[~removed_nets]
        for index, cells in members.items():
            net_degrees[index] = len(cells)
        net_ptr = np.zeros(num_nets + 1, dtype=np.int64)
        np.cumsum(net_degrees, out=net_ptr[1:])
        net_cells = np.empty(int(net_ptr[-1]), dtype=np.int64)
        pins = np.flatnonzero(untouched[arrays.pin_net])
        owners = arrays.pin_net[pins]
        net_cells[
            net_ptr[net_remap[owners]] + pins - arrays.net_ptr[owners]
        ] = remap[arrays.net_cells[pins]]
        if members:
            order = sorted(members)
            lengths = net_degrees[order]
            starts = np.repeat(net_ptr[order], lengths)
            offsets = np.repeat(np.cumsum(lengths) - lengths, lengths)
            net_cells[
                starts + np.arange(int(lengths.sum()), dtype=np.int64) - offsets
            ] = np.fromiter(
                (cell for index in order for cell in members[index]),
                dtype=np.int64,
                count=int(lengths.sum()),
            )

    spliced = NetlistArrays.from_net_major(
        net_ptr=net_ptr,
        net_cells=net_cells,
        areas=areas,
        pin_counts=pin_counts,
        fixed_mask=fixed_mask,
        describe=lambda index: given(index)[::2],  # (name, pin count)
    )
    if num_kept != base.num_cells or added:
        cell_table = _spliced_names(cell_table, ~removed, [e.name for e in added])
    if num_kept_nets != base.num_nets or delta.nets_added:
        net_table = _spliced_names(
            net_table, ~removed_nets, [e.name for e in delta.nets_added]
        )
    return Netlist(spliced, cell_table, net_table)


__all__ = [
    "DELTA_VERSION",
    "CellEdit",
    "NetEdit",
    "NetlistDelta",
    "apply_delta",
    "delta_fingerprint",
    "diff",
]
