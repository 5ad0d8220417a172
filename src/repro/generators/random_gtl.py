"""Random hypergraphs with planted GTLs (Section 5.1.1, Table 1).

The paper generates random graphs "based on [Garbers et al. 1990]" whose
tangled structures are known a priori: a background random hypergraph in
which some disjoint cell blocks are made *more connected internally and less
connected externally* than the rest.  This module reproduces that
construction with full ground truth, so miss/over rates (Table 1 columns 9
and 10) can be measured exactly.

Construction per planted block of size ``s``:

* the block's cells are drawn from a global random permutation (so planted
  ids are scattered);
* an internal "window chain" over a shuffled member list guarantees the
  block is connected, then random internal nets are added until the block
  reaches ``internal_nets_per_cell``;
* exactly ``external_links(s)`` 2-3 pin nets tie the block to background
  cells — this is the block's entire net cut, kept far below the Rent-rule
  expectation so the planted block is a genuine GTL.

The background is an independent random hypergraph over the remaining cells
with net degrees drawn from ``net_degree_weights`` and an average of
``background_nets_per_cell`` nets per cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import GenerationError
from repro.netlist.builder import NetlistBuilder
from repro.netlist.hypergraph import Netlist
from repro.utils.rng import RngLike, ensure_rng

#: Default net-degree distribution: mostly 2-3 pin nets with a tail, the
#: shape of post-synthesis netlists.
DEFAULT_NET_DEGREES: Tuple[Tuple[int, float], ...] = (
    (2, 0.55),
    (3, 0.25),
    (4, 0.12),
    (5, 0.08),
)


@dataclass(frozen=True)
class PlantedGraphSpec:
    """Parameters of one planted-GTL random graph.

    Attributes:
        num_cells: total |V|.
        gtl_sizes: sizes of the disjoint planted blocks.
        background_nets_per_cell: average nets per background cell.
        internal_nets_per_cell: average internal nets per planted-block cell
            (higher than background = "more connected internally").
        external_links: per-block external net count; ``None`` selects
            ``max(6, round(2 * s**0.35))`` which keeps nGTL scores in the
            0.01-0.1 band Table 1 reports.
        net_degree_weights: (degree, weight) pairs for net sizes.
    """

    num_cells: int
    gtl_sizes: Tuple[int, ...]
    background_nets_per_cell: float = 1.1
    internal_nets_per_cell: float = 2.2
    external_links: Optional[int] = None
    net_degree_weights: Tuple[Tuple[int, float], ...] = DEFAULT_NET_DEGREES

    def __post_init__(self) -> None:
        if self.num_cells < 4:
            raise GenerationError("num_cells must be >= 4")
        if any(s < 4 for s in self.gtl_sizes):
            raise GenerationError("every planted GTL needs >= 4 cells")
        if sum(self.gtl_sizes) > self.num_cells // 2:
            raise GenerationError(
                "planted blocks may cover at most half the graph "
                f"({sum(self.gtl_sizes)} of {self.num_cells})"
            )

    def external_links_for(self, size: int) -> int:
        """External net count for a block of ``size`` cells."""
        if self.external_links is not None:
            return self.external_links
        return max(6, int(round(2.0 * size**0.35)))


def planted_gtl_graph(
    num_cells: int,
    gtl_sizes: Sequence[int],
    seed: RngLike = None,
    spec: Optional[PlantedGraphSpec] = None,
) -> Tuple[Netlist, List[frozenset]]:
    """Generate a random hypergraph with planted GTLs.

    Args:
        num_cells: total cell count.
        gtl_sizes: one entry per planted block.
        seed: RNG seed for reproducibility.
        spec: full parameter set; when given, ``num_cells``/``gtl_sizes``
            must match it (pass-through convenience).

    Returns:
        ``(netlist, ground_truth)`` where ``ground_truth[i]`` is the
        frozenset of cell indices of planted block ``i`` (ordered as in
        ``gtl_sizes``).
    """
    if spec is None:
        spec = PlantedGraphSpec(num_cells=num_cells, gtl_sizes=tuple(gtl_sizes))
    elif spec.num_cells != num_cells or tuple(spec.gtl_sizes) != tuple(gtl_sizes):
        raise GenerationError("spec disagrees with num_cells/gtl_sizes arguments")

    rng = ensure_rng(seed)
    builder = NetlistBuilder()
    builder.add_cells(spec.num_cells, prefix="v")

    permutation = list(range(spec.num_cells))
    rng.shuffle(permutation)

    ground_truth: List[frozenset] = []
    cursor = 0
    net_serial = [0]

    def next_net_name() -> str:
        net_serial[0] += 1
        return f"n{net_serial[0]}"

    degrees = [d for d, _ in spec.net_degree_weights]
    weights = [w for _, w in spec.net_degree_weights]

    def draw_degree(cap: int) -> int:
        degree = rng.choices(degrees, weights)[0]
        return max(2, min(degree, cap))

    for size in spec.gtl_sizes:
        members = permutation[cursor : cursor + size]
        cursor += size
        ground_truth.append(frozenset(members))
        _wire_block(builder, members, spec.internal_nets_per_cell, draw_degree, rng, next_net_name)

    background = permutation[cursor:]
    if len(background) >= 2:
        _wire_block(
            builder, background, spec.background_nets_per_cell, draw_degree, rng, next_net_name
        )

    # External links: each planted block touches the background through a
    # small number of 2-3 pin nets — the block's entire designed cut.
    for block_index, members_set in enumerate(ground_truth):
        members = sorted(members_set)
        links = spec.external_links_for(len(members))
        for _ in range(links):
            inside = rng.choice(members)
            outside_count = rng.choice((1, 1, 2))
            outside = [rng.choice(background) for _ in range(outside_count)]
            builder.add_net(next_net_name(), [inside, *outside])

    netlist = builder.build()
    return netlist, ground_truth


def _wire_block(
    builder: NetlistBuilder,
    members: List[int],
    nets_per_cell: float,
    draw_degree,
    rng,
    next_net_name,
) -> None:
    """Connect ``members`` internally: connectivity chain + random nets."""
    if len(members) < 2:
        return
    shuffled = list(members)
    rng.shuffle(shuffled)

    # Overlapping windows guarantee a connected block.
    chain_nets = 0
    step = 2
    window = 3
    index = 0
    while index < len(shuffled) - 1:
        group = shuffled[index : index + window]
        if len(group) < 2:
            group = shuffled[-2:]
        builder.add_net(next_net_name(), group)
        chain_nets += 1
        index += step

    target = int(round(nets_per_cell * len(members)))
    for _ in range(max(0, target - chain_nets)):
        degree = draw_degree(len(members))
        builder.add_net(next_net_name(), rng.sample(members, degree))
