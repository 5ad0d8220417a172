"""UCLA Bookshelf reader/writer (the ISPD 2005/2006 benchmark format).

Supported files:

* ``.aux``   — index file naming the others;
* ``.nodes`` — cells with width/height, ``terminal`` marks fixed pads;
* ``.nets``  — nets with pin lists (pin offsets are parsed and ignored — the
  hypergraph model needs membership only);
* ``.pl``    — optional placement (returned as a coordinate dict).

Only the subset of Bookshelf exercised by the ISPD placement benchmarks is
implemented; ``.wts``/``.scl`` files are accepted in the ``.aux`` line and
skipped.  When the real ISPD benchmarks are available, ``read_bookshelf``
lets every experiment in this package run on them unchanged.
"""

from __future__ import annotations

import os
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import NetlistError, ParseError
from repro.netlist.builder import NetlistBuilder
from repro.netlist.hypergraph import Netlist


def read_bookshelf(aux_path: str) -> Tuple[Netlist, Dict[int, Tuple[float, float]]]:
    """Read a Bookshelf design from its ``.aux`` file.

    Returns ``(netlist, placement)`` where ``placement`` maps cell index to
    ``(x, y)`` (empty when no ``.pl`` file is listed or present).
    """
    directory = os.path.dirname(os.path.abspath(aux_path))
    nodes_path = nets_path = pl_path = None
    with open(aux_path) as handle:
        for line_no, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            # "RowBasedPlacement : a.nodes a.nets a.wts a.pl a.scl"
            parts = line.split(":", 1)
            names = (parts[1] if len(parts) == 2 else parts[0]).split()
            for name in names:
                lower = name.lower()
                if lower.endswith(".nodes"):
                    nodes_path = os.path.join(directory, name)
                elif lower.endswith(".nets"):
                    nets_path = os.path.join(directory, name)
                elif lower.endswith(".pl"):
                    pl_path = os.path.join(directory, name)
    if nodes_path is None or nets_path is None:
        raise ParseError("aux file names no .nodes/.nets pair", aux_path)

    builder = NetlistBuilder()
    _read_nodes(nodes_path, builder)
    _read_nets(nets_path, builder)
    netlist = builder.build(drop_singleton_nets=True)

    placement: Dict[int, Tuple[float, float]] = {}
    if pl_path and os.path.exists(pl_path):
        placement = _read_pl(pl_path, netlist)
    return netlist, placement


def _content_lines(path: str) -> Iterator[Tuple[int, str]]:
    """Yield (line_number, stripped_line), skipping comments/headers/blanks."""
    with open(path) as handle:
        for line_no, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line or line.startswith("UCLA"):
                continue
            yield line_no, line


def _read_nodes(path: str, builder: NetlistBuilder) -> None:
    for line_no, line in _content_lines(path):
        if line.startswith(("NumNodes", "NumTerminals")):
            continue
        parts = line.split()
        name = parts[0]
        try:
            width = float(parts[1]) if len(parts) > 1 else 1.0
            height = float(parts[2]) if len(parts) > 2 else 1.0
        except ValueError:
            raise ParseError(f"bad node line {line!r}", path, line_no) from None
        fixed = "terminal" in (p.lower() for p in parts[3:])
        area = max(width * height, 1e-9)
        builder.add_cell(name=name, area=area, fixed=fixed)


def _read_nets(path: str, builder: NetlistBuilder) -> None:
    pending: Optional[Tuple[str, int]] = None  # (net name, pins expected)
    members: List[int] = []
    net_serial = 0

    def flush() -> None:
        nonlocal pending, members, net_serial
        if pending is not None and members:
            builder.add_net(pending[0], members)
        pending = None
        members = []

    for line_no, line in _content_lines(path):
        if line.startswith(("NumNets", "NumPins")):
            continue
        if line.startswith("NetDegree"):
            flush()
            parts = line.replace(":", " ").split()
            try:
                degree = int(parts[1])
            except (IndexError, ValueError):
                raise ParseError(f"bad NetDegree line {line!r}", path, line_no) from None
            name = parts[2] if len(parts) > 2 else f"net{net_serial}"
            net_serial += 1
            pending = (name, degree)
            continue
        if pending is None:
            raise ParseError(f"pin line outside a net: {line!r}", path, line_no)
        node_name = line.split()[0]
        try:
            cell = builder.cell_index(node_name)
        except NetlistError:
            raise ParseError(f"unknown node {node_name!r}", path, line_no) from None
        if cell not in members:
            members.append(cell)
    flush()


def _read_pl(path: str, netlist: Netlist) -> Dict[int, Tuple[float, float]]:
    placement: Dict[int, Tuple[float, float]] = {}
    for line_no, line in _content_lines(path):
        parts = line.split()
        if len(parts) < 3:
            continue
        try:
            cell = netlist.cell_index(parts[0])
        except NetlistError:
            continue  # .pl may mention filler cells absent from .nodes
        try:
            placement[cell] = (float(parts[1]), float(parts[2]))
        except ValueError:
            raise ParseError(f"bad placement line {line!r}", path, line_no) from None
    return placement


def write_bookshelf(
    netlist: Netlist,
    directory: str,
    design: str,
    placement: Optional[Dict[int, Tuple[float, float]]] = None,
) -> str:
    """Write ``netlist`` as Bookshelf files; returns the ``.aux`` path."""
    os.makedirs(directory, exist_ok=True)
    nodes_name, nets_name, pl_name = (
        f"{design}.nodes",
        f"{design}.nets",
        f"{design}.pl",
    )

    with open(os.path.join(directory, nodes_name), "w") as handle:
        handle.write("UCLA nodes 1.0\n")
        handle.write(f"NumNodes : {netlist.num_cells}\n")
        terminals = sum(1 for c in range(netlist.num_cells) if netlist.cell_is_fixed(c))
        handle.write(f"NumTerminals : {terminals}\n")
        for cell in range(netlist.num_cells):
            width = netlist.cell_area(cell)
            suffix = " terminal" if netlist.cell_is_fixed(cell) else ""
            handle.write(f"  {netlist.cell_name(cell)} {width:g} 1{suffix}\n")

    with open(os.path.join(directory, nets_name), "w") as handle:
        handle.write("UCLA nets 1.0\n")
        handle.write(f"NumNets : {netlist.num_nets}\n")
        handle.write(f"NumPins : {netlist.num_incidences}\n")
        for net in range(netlist.num_nets):
            cells = netlist.cells_of_net(net)
            handle.write(f"NetDegree : {len(cells)} {netlist.net_name(net)}\n")
            for cell in cells:
                handle.write(f"  {netlist.cell_name(cell)} I : 0 0\n")

    if placement is not None:
        with open(os.path.join(directory, pl_name), "w") as handle:
            handle.write("UCLA pl 1.0\n")
            for cell in range(netlist.num_cells):
                x, y = placement.get(cell, (0.0, 0.0))
                handle.write(f"  {netlist.cell_name(cell)} {x:.4f} {y:.4f} : N\n")

    aux_path = os.path.join(directory, f"{design}.aux")
    with open(aux_path, "w") as handle:
        files = f"{nodes_name} {nets_name}"
        if placement is not None:
            files += f" {pl_name}"
        handle.write(f"RowBasedPlacement : {files}\n")
    return aux_path
