"""Recursive bisection: orderings and Rent-exponent estimation.

Recursive min-cut bisection yields (a) a linear ordering (the leaf order
of the bisection tree), which is the classic alternative to the paper's
agglomerative Phase I, and (b) the textbook Rent-exponent measurement: at
every bisection node, the block size |C| and its external cut T(C) give a
point on the ``T = A·|C|^p`` law; a log-log fit over all nodes estimates p.

Both drivers dispatch through :func:`repro.netlist.backend.resolve_backend`.
The default array backend shares one
:class:`~repro.partition.kernel.SubsetCSR` restriction down the tree: each
node's hypergraph view is derived from its parent's in one vectorized pass
over the parent's pins (a net with >= 2 pins on a child side already has
>= 2 pins in the parent), instead of re-deriving net membership from the
full netlist at every node the way the scalar reference does.  Results are
bit-identical across backends — same FM move sequences, same leaves in the
same order, same ``(|C|, T(C))`` samples.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.metrics.rent import fit_rent_exponent
from repro.netlist.backend import resolve_backend
from repro.netlist.hypergraph import Netlist
from repro.netlist.ops import cut_size
from repro.partition.fm import FMPartitioner
from repro.utils.rng import RngLike, ensure_rng


def recursive_bisection(
    netlist: Netlist,
    cells: Optional[Sequence[int]] = None,
    min_block: int = 8,
    balance_tolerance: float = 0.1,
    rng: RngLike = 0,
) -> List[List[int]]:
    """Recursively bisect ``cells``; returns the blocks in leaf order.

    Args:
        netlist: the design.
        cells: cells to partition (default: all movable cells).
        min_block: blocks at or below this size become leaves.
        balance_tolerance: FM area balance slack.
        rng: seed for FM initial partitions (split deterministically).
    """
    if cells is None:
        cells = netlist.movable_cells()
    cells = sorted(set(cells))
    if not cells:
        raise ReproError("recursive_bisection needs at least one cell")
    generator = ensure_rng(rng)

    leaves: List[List[int]] = []

    if resolve_backend() == "numpy":
        from repro.partition.kernel import ArrayFMPartitioner, SubsetCSR

        def recurse_array(subset: "SubsetCSR", block: List[int]) -> None:
            # Invariant: len(block) > min_block and subset covers block.
            partitioner = ArrayFMPartitioner(
                balance_tolerance=balance_tolerance,
                rng=generator.randrange(2**31),
                subset=subset,
            )
            result = partitioner.run()
            left = result.side_cells(0)
            right = result.side_cells(1)
            if not left or not right:
                leaves.append(block)  # degenerate split: stop here
                return
            for part in (left, right):
                if len(part) <= min_block:
                    leaves.append(part)
                else:
                    recurse_array(subset.restrict(subset.member_mask(part)), part)

        if len(cells) <= min_block:
            leaves.append(cells)
        else:
            recurse_array(SubsetCSR.from_netlist(netlist, cells), cells)
        return leaves

    def recurse(block: List[int]) -> None:
        if len(block) <= min_block:
            leaves.append(block)
            return
        partitioner = FMPartitioner(
            netlist,
            cells=block,
            balance_tolerance=balance_tolerance,
            rng=generator.randrange(2**31),
        )
        result = partitioner.run()
        left = result.side_cells(0)
        right = result.side_cells(1)
        if not left or not right:
            leaves.append(block)  # degenerate split: stop here
            return
        recurse(left)
        recurse(right)

    recurse(cells)
    return leaves


def bisection_ordering(
    netlist: Netlist,
    cells: Optional[Sequence[int]] = None,
    min_block: int = 8,
    rng: RngLike = 0,
) -> List[int]:
    """Linear ordering from the recursive-bisection leaf order.

    An alternative Phase I: feed this ordering to
    :func:`repro.finder.candidate.extract_candidate` to run the paper's
    Phase II on partitioning-derived orderings.
    """
    leaves = recursive_bisection(netlist, cells=cells, min_block=min_block, rng=rng)
    ordering: List[int] = []
    for block in leaves:
        ordering.extend(block)
    return ordering


def estimate_rent_exponent_bisection(
    netlist: Netlist,
    cells: Optional[Sequence[int]] = None,
    min_block: int = 16,
    rng: RngLike = 0,
) -> Tuple[float, float]:
    """Rent exponent via recursive bisection (returns ``(p, A)``).

    Collects ``(|C|, T(C))`` at every bisection node and fits
    ``ln T = ln A + p ln |C|``.  This is the classical measurement the
    paper's ordering-based estimator approximates; the two should agree to
    within ~0.15 on ordinary logic.
    """
    if cells is None:
        cells = netlist.movable_cells()
    cells = sorted(set(cells))
    generator = ensure_rng(rng)

    sizes: List[int] = []
    cuts: List[int] = []

    def sample(block: List[int]) -> None:
        cut = cut_size(netlist, block)
        if cut > 0 and len(block) < len(cells):
            sizes.append(len(block))
            cuts.append(cut)

    if resolve_backend() == "numpy":
        from repro.partition.kernel import ArrayFMPartitioner, SubsetCSR

        def recurse_array(subset: "SubsetCSR", block: List[int]) -> None:
            # Invariant: len(block) > min_block (>= 2) and subset covers it.
            partitioner = ArrayFMPartitioner(
                rng=generator.randrange(2**31), subset=subset
            )
            result = partitioner.run()
            left = result.side_cells(0)
            right = result.side_cells(1)
            if not left or not right:
                return
            for part in (left, right):
                if len(part) < 2:
                    continue
                sample(part)
                if len(part) > min_block:
                    recurse_array(subset.restrict(subset.member_mask(part)), part)

        if len(cells) >= 2:
            sample(cells)
            if len(cells) > min_block:
                recurse_array(SubsetCSR.from_netlist(netlist, cells), cells)
    else:

        def recurse(block: List[int]) -> None:
            if len(block) < 2:
                return
            sample(block)
            if len(block) <= min_block:
                return
            partitioner = FMPartitioner(
                netlist, cells=block, rng=generator.randrange(2**31)
            )
            result = partitioner.run()
            left = result.side_cells(0)
            right = result.side_cells(1)
            if not left or not right:
                return
            recurse(left)
            recurse(right)

        recurse(cells)
    if len(sizes) < 2:
        raise ReproError("not enough bisection nodes to fit a Rent exponent")
    return fit_rent_exponent(sizes, cuts, min_size=2)
