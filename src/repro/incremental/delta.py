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

Edits are assumed order-preserving (surviving cells and nets keep their
relative order, the invariant every generator and ECO flow here obeys).
When the relative order *did* change, ``diff`` degrades to a
full-replacement delta — still correct under ``apply_delta``, merely
maximally conservative for the dirty-region computation downstream.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import NetlistError
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
    return tuple(
        netlist.cell_name(c) for c in netlist.cells_of_net(net)
    )


def _order_preserved(old_names: Sequence[str], new_names: Sequence[str]) -> bool:
    """True when the names common to both sequences keep their relative order."""
    common = set(old_names) & set(new_names)
    old_common = [n for n in old_names if n in common]
    new_common = [n for n in new_names if n in common]
    return old_common == new_common


def _full_replacement(old: Netlist, new: Netlist) -> NetlistDelta:
    """Everything-removed-everything-added delta (degenerate reorder case)."""
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
    import numpy as np

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
    import numpy as np

    a, b = old.arrays, new.arrays
    changed: set = set()
    same_degree = a.net_degrees == b.net_degrees
    changed.update(int(i) for i in np.nonzero(~same_degree)[0])
    if changed:
        # Degree drift shifts the CSR segments out of alignment; compare the
        # equal-degree nets segment-by-segment via one gather per side.
        from repro.netlist.arrays import gather_segments

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
    :func:`diff` itself) lays the new netlist out.
    """
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


__all__ = [
    "DELTA_VERSION",
    "CellEdit",
    "NetEdit",
    "NetlistDelta",
    "apply_delta",
    "delta_fingerprint",
    "diff",
]
