"""Hierarchical GTL detection — structures within structures.

Chapter I: "When searching for GTLs one might find structures within
structures, especially as the logic is repeated.  We must be able to
distinguish between them...  Our metrics and algorithm are able to decide
whether we should choose several smaller GTLs or a much larger GTL which
encompasses all the smaller ones."

The flat finder makes that decision once, via pruning.  This module makes
the nesting explicit: after the flat pass, each found GTL's *induced*
sub-netlist is searched again, recursively, yielding a tree of nested
structures each scored in its own context.  Nested children are reported
only when their score inside the parent beats the parent's own score —
i.e. the sub-structure is even more tangled than the structure containing
it (a repeated sub-block of a large dissolved ROM, for instance).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.finder.config import FinderConfig
from repro.finder.finder import TangledLogicFinder
from repro.finder.result import GTL
from repro.netlist.hypergraph import Netlist
from repro.netlist.ops import induced_netlist


@dataclass
class GTLNode:
    """One node of the nested-GTL tree.

    Attributes:
        gtl: the structure, with cell indices in the *root* netlist.
        depth: 0 for top-level structures.
        children: nested sub-structures (possibly empty).
    """

    gtl: GTL
    depth: int
    children: List["GTLNode"] = field(default_factory=list)

    def walk(self):
        """Yield this node and all descendants, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()

    def summary(self, indent: str = "") -> str:
        """Indented tree rendering."""
        line = (
            f"{indent}size={self.gtl.size} cut={self.gtl.cut} "
            f"score={self.gtl.score:.4f}"
        )
        parts = [line]
        for child in self.children:
            parts.append(child.summary(indent + "  "))
        return "\n".join(parts)


def find_hierarchical_gtls(
    netlist: Netlist,
    config: Optional[FinderConfig] = None,
    max_depth: int = 2,
    min_child_fraction: float = 0.05,
) -> List[GTLNode]:
    """Find GTLs, then recursively search inside each one.

    Args:
        netlist: the design.
        config: finder configuration (reused at every level; seed counts
            shrink with the sub-problem size).
        max_depth: recursion limit (0 = flat).
        min_child_fraction: a child must hold at least this fraction of its
            parent's cells (tiny fragments are noise).

    Returns the top-level :class:`GTLNode` forest.
    """
    base = config or FinderConfig()
    report = TangledLogicFinder(netlist, base).run()
    forest = [GTLNode(gtl=gtl, depth=0) for gtl in report.gtls]
    for node in forest:
        _descend(netlist, node, base, max_depth, min_child_fraction)
    return forest


def _descend(
    root_netlist: Netlist,
    node: GTLNode,
    config: FinderConfig,
    max_depth: int,
    min_child_fraction: float,
) -> None:
    if node.depth >= max_depth:
        return
    cells = sorted(node.gtl.cells)
    min_size = max(config.min_gtl_size, int(min_child_fraction * len(cells)))
    if len(cells) < 2 * min_size:
        return

    sub_netlist, mapping = induced_netlist(root_netlist, cells)
    reverse = {new: old for old, new in mapping.items()}
    sub_seeds = max(8, config.num_seeds // 4)
    sub_config = config.with_overrides(
        num_seeds=min(sub_seeds, max(2, sub_netlist.num_cells - 1)),
        max_order_length=max(min_size + 1, sub_netlist.num_cells // 2),
        min_gtl_size=min_size,
    )
    sub_report = TangledLogicFinder(sub_netlist, sub_config).run()

    for sub_gtl in sub_report.gtls:
        if sub_gtl.size >= len(cells):
            continue  # the whole parent again
        if sub_gtl.score >= node.gtl.score:
            continue  # not more tangled than its parent
        lifted = GTL(
            cells=frozenset(reverse[c] for c in sub_gtl.cells),
            size=sub_gtl.size,
            cut=sub_gtl.cut,
            ngtl_score=sub_gtl.ngtl_score,
            gtl_sd_score=sub_gtl.gtl_sd_score,
            score=sub_gtl.score,
            seed=reverse.get(sub_gtl.seed, sub_gtl.seed),
            rent_exponent=sub_gtl.rent_exponent,
        )
        child = GTLNode(gtl=lifted, depth=node.depth + 1)
        node.children.append(child)
        _descend(root_netlist, child, config, max_depth, min_child_fraction)
