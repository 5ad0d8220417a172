"""Netlist summary statistics (used by the CLI ``stats`` subcommand).

Gives the quick profile a physical designer looks at before running the
finder: size, pin statistics, net-degree histogram, connectivity, and the
two Rent-exponent estimates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Tuple

from repro.netlist.hypergraph import Netlist
from repro.netlist.ops import connected_components
from repro.utils.tables import format_table


@dataclass(frozen=True)
class NetlistStats:
    """Profile of one netlist.

    Attributes:
        num_cells, num_nets, num_pins: basic sizes.
        num_fixed: fixed terminals (pads).
        avg_pins_per_cell: A(G).
        avg_net_degree: mean pins per net.
        max_net_degree: largest net.
        net_degree_histogram: degree -> count (degrees above 10 pooled).
        num_components: connected components.
        total_area: sum of cell areas.
    """

    num_cells: int
    num_nets: int
    num_pins: int
    num_fixed: int
    avg_pins_per_cell: float
    avg_net_degree: float
    max_net_degree: int
    net_degree_histogram: Tuple[Tuple[str, int], ...]
    num_components: int
    total_area: float

    def render(self) -> str:
        """Human-readable profile."""
        rows = [
            ["cells", self.num_cells],
            ["nets", self.num_nets],
            ["pins", self.num_pins],
            ["fixed cells (pads)", self.num_fixed],
            ["avg pins/cell (A_G)", round(self.avg_pins_per_cell, 3)],
            ["avg net degree", round(self.avg_net_degree, 3)],
            ["max net degree", self.max_net_degree],
            ["connected components", self.num_components],
            ["total cell area", round(self.total_area, 1)],
        ]
        text = format_table(["quantity", "value"], rows)
        histogram = format_table(
            ["net degree", "count"], [[d, c] for d, c in self.net_degree_histogram]
        )
        return f"{text}\n\nnet degree distribution:\n{histogram}"


def netlist_stats(netlist: Netlist) -> NetlistStats:
    """Compute the :class:`NetlistStats` profile of ``netlist``."""
    degrees = [netlist.net_degree(n) for n in range(netlist.num_nets)]
    counter: Counter = Counter()
    for degree in degrees:
        counter[str(degree) if degree <= 10 else ">10"] += 1

    def sort_key(item):
        label = item[0]
        return (1, 0) if label == ">10" else (0, int(label))

    histogram = tuple(sorted(counter.items(), key=sort_key))
    total_incidences = sum(degrees)
    return NetlistStats(
        num_cells=netlist.num_cells,
        num_nets=netlist.num_nets,
        num_pins=netlist.num_pins,
        num_fixed=len(netlist.fixed_cells()),
        avg_pins_per_cell=(
            netlist.average_pins_per_cell if netlist.num_cells else 0.0
        ),
        avg_net_degree=(total_incidences / netlist.num_nets) if netlist.num_nets else 0.0,
        max_net_degree=max(degrees) if degrees else 0,
        net_degree_histogram=histogram,
        num_components=len(connected_components(netlist)),
        total_area=sum(netlist.cell_area(c) for c in range(netlist.num_cells)),
    )
