"""Phase III (second half) — overlap pruning (steps III.15-III.22).

Refined candidates from different seeds often describe the same structure.
Candidates are visited best-score-first; a candidate is kept only when it is
disjoint from everything already kept.  The survivors are the final,
mutually disjoint set of GTLs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

import numpy as np

from repro.finder.candidate import CandidateGTL
from repro.netlist.backend import resolve_backend
from repro.netlist.hypergraph import Netlist


def prune_overlapping(
    candidates: Sequence[CandidateGTL],
    netlist: Optional[Netlist] = None,
) -> List[CandidateGTL]:
    """Greedy best-first disjoint selection.

    Candidates with identical member sets are collapsed first; then the
    survivors are scanned in ascending score order (ties broken by larger
    size, then by seed for determinism) and kept when disjoint from all
    previously kept candidates.

    When ``netlist`` is given and the array backend is selected, occupancy
    is tracked in one boolean cell mask instead of a growing Python set;
    the kept candidates are identical either way.
    """
    unique = {}
    for candidate in candidates:
        existing = unique.get(candidate.cells)
        if existing is None or candidate.score < existing.score:
            unique[candidate.cells] = candidate

    ranked = sorted(
        unique.values(), key=lambda c: (c.score, -c.size, c.seed)
    )
    kept: List[CandidateGTL] = []
    if netlist is not None and resolve_backend() == "numpy":
        occupied_mask = np.zeros(netlist.num_cells, dtype=bool)
        for candidate in ranked:
            members = np.fromiter(
                candidate.cells, dtype=np.int64, count=len(candidate.cells)
            )
            if not occupied_mask[members].any():
                kept.append(candidate)
                occupied_mask[members] = True
        return kept
    occupied: Set[int] = set()
    for candidate in ranked:
        if occupied.isdisjoint(candidate.cells):
            kept.append(candidate)
            occupied.update(candidate.cells)
    return kept
