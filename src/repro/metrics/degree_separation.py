"""Degree/Separation (DS) metric of Hagen & Kahng (prior work #5).

``Degree`` is the average number of nets incident to a node of the cluster;
``Separation`` is the average shortest-path distance between node pairs
inside the cluster (paths restricted to the cluster).  The DS value is
``Degree / Separation`` — larger means denser and tighter.  As the paper
notes, it ignores external connections, which is why it cannot identify
GTLs; we include it as a baseline.

Exact all-pairs distances are O(|C| * (|C| + edges)); for large clusters we
sample source nodes, which preserves the average within sampling error.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Set

from repro.errors import MetricError
from repro.netlist.hypergraph import Netlist
from repro.utils.rng import RngLike, ensure_rng


def degree_separation(
    netlist: Netlist,
    group: Iterable[int],
    max_sources: int = 64,
    rng: RngLike = 0,
) -> float:
    """DS value of ``group``: average degree / average pairwise separation.

    Args:
        netlist: the host netlist.
        group: cell indices of the cluster (at least two cells).
        max_sources: BFS sources used to estimate the average separation;
            clusters smaller than this are measured exactly.
        rng: seed or generator for source sampling.

    Returns ``0.0`` for clusters whose members are mutually unreachable
    inside the cluster (infinite separation).
    """
    members: List[int] = sorted(set(group))
    if len(members) < 2:
        raise MetricError("degree_separation needs at least two cells")
    member_set: Set[int] = set(members)

    degree = sum(netlist.cell_degree(c) for c in members) / len(members)

    # Cluster-internal adjacency (via nets with >= 2 members inside).
    adjacency: Dict[int, Set[int]] = {c: set() for c in members}
    seen_nets: Set[int] = set()
    for cell in members:
        for net in netlist.nets_of_cell(cell):
            if net in seen_nets:
                continue
            seen_nets.add(net)
            inside = [c for c in netlist.cells_of_net(net) if c in member_set]
            for i, a in enumerate(inside):
                for b in inside[i + 1 :]:
                    adjacency[a].add(b)
                    adjacency[b].add(a)

    if len(members) <= max_sources:
        sources = members
    else:
        sources = ensure_rng(rng).sample(members, max_sources)

    total_distance = 0
    total_pairs = 0
    for source in sources:
        distances = _bfs(adjacency, source)
        reached = len(distances) - 1
        if reached < len(members) - 1:
            return 0.0  # some pair unreachable: separation is infinite
        total_distance += sum(distances.values())
        total_pairs += reached
    if total_pairs == 0:
        return 0.0
    separation = total_distance / total_pairs
    if separation == 0:
        return 0.0
    return degree / separation


def _bfs(adjacency: Dict[int, Set[int]], source: int) -> Dict[int, int]:
    distances = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in adjacency[node]:
            if neighbor not in distances:
                distances[neighbor] = distances[node] + 1
                queue.append(neighbor)
    return distances
