"""Soft blocks: GTLs as placement attraction groups (paper, Chapter I).

"Since a GTL will stay together during placement, the designer may wish to
form a soft block for the gates in the GTL.  Then during placement, the
soft block can be translated into placement constraints (like attractions,
forces, or move bounds)."

We implement the attraction form: every GTL receives a set of lightweight
pseudo-nets (a random cycle plus chords over its members) that the
quadratic placer treats like ordinary springs.  The result keeps each GTL
coherent even when the design is placed with aggressive spreading.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import PlacementError
from repro.netlist.builder import NetlistBuilder
from repro.netlist.hypergraph import Netlist
from repro.utils.rng import RngLike, ensure_rng


def soft_block_nets(
    netlist: Netlist,
    groups: Sequence[Iterable[int]],
    chords_per_cell: float = 0.5,
    rng: RngLike = 0,
) -> Netlist:
    """Return a copy of ``netlist`` with attraction pseudo-nets per group.

    Each group gets a shuffled ring (guaranteeing cohesion) plus
    ``chords_per_cell * |group|`` random chords.  Pseudo-nets are named
    ``__soft<i>_<j>`` so downstream code can recognize and strip them.

    Args:
        netlist: the design.
        groups: cell-index groups (typically found GTLs).
        chords_per_cell: extra random 2-pin attractions per member.
        rng: seed for ring/chord selection.
    """
    generator = ensure_rng(rng)
    builder = NetlistBuilder()
    for cell in range(netlist.num_cells):
        view = netlist.cell(cell)
        builder.add_cell(
            name=view.name, area=view.area, pin_count=None, fixed=view.fixed
        )
    for net in range(netlist.num_nets):
        builder.add_net(netlist.net_name(net), netlist.cells_of_net(net))

    for g_index, group in enumerate(groups):
        members = sorted(set(group))
        if len(members) < 2:
            raise PlacementError(f"soft block {g_index} needs >= 2 cells")
        ring = list(members)
        generator.shuffle(ring)
        serial = 0
        for a, b in zip(ring, ring[1:] + ring[:1]):
            builder.add_net(f"__soft{g_index}_{serial}", [a, b])
            serial += 1
        for _ in range(int(chords_per_cell * len(members))):
            a, b = generator.sample(members, 2)
            builder.add_net(f"__soft{g_index}_{serial}", [a, b])
            serial += 1
    return builder.build()
