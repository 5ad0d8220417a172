"""Consistency checks for netlists.

:func:`validate_netlist` verifies the structural invariants that the rest of
the package assumes.  The builder enforces most of them at construction time;
this function exists for netlists arriving from external files and as an
executable statement of the invariants for tests.
"""

from __future__ import annotations

from repro.errors import ValidationError
from repro.netlist.hypergraph import Netlist


def validate_netlist(netlist: Netlist, require_connected_pins: bool = False) -> None:
    """Raise :class:`ValidationError` if ``netlist`` violates an invariant.

    Checks performed:
      * every net references valid, distinct cells and has >= 1 pin;
      * cell<->net incidence maps are mutually consistent;
      * explicit pin counts are >= incidence degrees;
      * names are unique (guaranteed by the lookup maps);
      * optionally, every cell touches at least one net.
    """
    num_cells = netlist.num_cells
    for net_index in range(netlist.num_nets):
        cells = netlist.cells_of_net(net_index)
        if not cells:
            raise ValidationError(f"net {netlist.net_name(net_index)!r} has no cells")
        if len(set(cells)) != len(cells):
            raise ValidationError(
                f"net {netlist.net_name(net_index)!r} has duplicate members"
            )
        for cell in cells:
            if not 0 <= cell < num_cells:
                raise ValidationError(
                    f"net {netlist.net_name(net_index)!r} references bad cell {cell}"
                )
            if net_index not in netlist.nets_of_cell(cell):
                raise ValidationError(
                    f"incidence mismatch: net {net_index} lists cell {cell} "
                    f"but cell does not list the net"
                )

    for cell_index in range(num_cells):
        nets = netlist.nets_of_cell(cell_index)
        if len(set(nets)) != len(nets):
            raise ValidationError(
                f"cell {netlist.cell_name(cell_index)!r} lists duplicate nets"
            )
        for net in nets:
            if not 0 <= net < netlist.num_nets:
                raise ValidationError(
                    f"cell {netlist.cell_name(cell_index)!r} references bad net {net}"
                )
            if cell_index not in netlist.cells_of_net(net):
                raise ValidationError(
                    f"incidence mismatch: cell {cell_index} lists net {net} "
                    f"but the net does not list the cell"
                )
        if netlist.cell_pin_count(cell_index) < len(nets):
            raise ValidationError(
                f"cell {netlist.cell_name(cell_index)!r} has fewer pins than nets"
            )
        if require_connected_pins and not nets:
            raise ValidationError(
                f"cell {netlist.cell_name(cell_index)!r} touches no net"
            )

    if netlist.num_cells:
        # A(G) must be well defined and positive for the normalized metrics.
        if netlist.average_pins_per_cell <= 0 and netlist.num_nets:
            raise ValidationError("netlist has nets but zero total pins")
