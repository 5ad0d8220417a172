"""Connectivity-based prior-work metrics (Chapter II, items 6-8).

* **(K,L)-connectivity** [Garbers et al. 1990]: two nodes are
  (K,L)-connected when K edge-disjoint paths of length <= L join them; a
  cluster is (K,L)-connected when every internal pair is.  The paper notes
  such clusters may still have large cut and that the metric is expensive —
  we implement the practical L=2 case (path counting via common neighbors)
  exactly as Garbers' heuristic targets.
* **Edge separability** [Cong & Lim 2004]: the min-cut between a net's two
  endpoints; emphasizes internal connections only.
* **Adhesion** [Kudva et al. 2002]: the sum of min-cuts over all node
  pairs of a cluster — "hardly practical for designs with millions of
  cells", which we make measurable by exposing it for small clusters only.

All three operate on the cluster's induced graph, using networkx max-flow
for min-cuts.  They exist as baselines: the package's experiments show why
the paper's Rent-based scores replace them.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Set

import networkx as nx

from repro.errors import MetricError
from repro.netlist.hypergraph import Netlist


def _induced_graph(netlist: Netlist, cells: Iterable[int]) -> nx.Graph:
    """Clique-expanded induced graph with parallel-edge multiplicity."""
    members: Set[int] = set(cells)
    graph = nx.Graph()
    graph.add_nodes_from(members)
    seen: Set[int] = set()
    for cell in members:
        for net in netlist.nets_of_cell(cell):
            if net in seen:
                continue
            seen.add(net)
            inside = [c for c in netlist.cells_of_net(net) if c in members]
            for a, b in itertools.combinations(inside, 2):
                if graph.has_edge(a, b):
                    graph[a][b]["capacity"] += 1.0
                else:
                    graph.add_edge(a, b, capacity=1.0)
    return graph


def kl_connectivity_l2(netlist: Netlist, cells: Iterable[int]) -> int:
    """Largest K such that the cluster is (K, 2)-connected.

    For L = 2, the number of edge-disjoint paths of length <= 2 between u
    and v equals (direct edge multiplicity) + (number of common neighbors
    reachable by distinct intermediate nodes).  Returns the minimum over
    all internal pairs (0 when some pair shares nothing).
    """
    members = sorted(set(cells))
    if len(members) < 2:
        raise MetricError("(K,L)-connectivity needs at least two cells")
    graph = _induced_graph(netlist, members)
    best_k = None
    for u, v in itertools.combinations(members, 2):
        direct = int(graph[u][v]["capacity"]) if graph.has_edge(u, v) else 0
        common = len(set(graph.neighbors(u)) & set(graph.neighbors(v)) - {u, v})
        k = direct + common
        best_k = k if best_k is None else min(best_k, k)
        if best_k == 0:
            return 0
    return int(best_k)


def edge_separability(
    netlist: Netlist, cells: Iterable[int], u: int, v: int
) -> float:
    """Min-cut between ``u`` and ``v`` in the cluster's induced graph."""
    members = set(cells)
    if u not in members or v not in members:
        raise MetricError("both endpoints must be inside the cluster")
    if u == v:
        raise MetricError("edge separability needs two distinct endpoints")
    graph = _induced_graph(netlist, members)
    if not nx.has_path(graph, u, v):
        return 0.0
    value, _ = nx.minimum_cut(graph, u, v)
    return float(value)


def adhesion(
    netlist: Netlist, cells: Iterable[int], max_cells: int = 40
) -> float:
    """Sum of pairwise min-cuts of the cluster (Kudva et al.).

    Quadratically many max-flow computations — exactly the cost the paper
    cites as impractical; ``max_cells`` guards against accidental use on
    large clusters.
    """
    members = sorted(set(cells))
    if len(members) < 2:
        raise MetricError("adhesion needs at least two cells")
    if len(members) > max_cells:
        raise MetricError(
            f"adhesion on {len(members)} cells exceeds max_cells={max_cells} "
            "(the metric is impractical at scale — the paper's point)"
        )
    graph = _induced_graph(netlist, members)
    total = 0.0
    for u, v in itertools.combinations(members, 2):
        if nx.has_path(graph, u, v):
            value, _ = nx.minimum_cut(graph, u, v)
            total += float(value)
    return total
