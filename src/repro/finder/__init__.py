"""The tangled-logic finder (Chapters III-IV of the paper).

Three phases per random seed, seeds independent:

* **Phase I** (:mod:`repro.finder.ordering`) — grow a linear ordering from a
  seed by repeatedly absorbing the most strongly connected outside cell.
* **Phase II** (:mod:`repro.finder.candidate`) — score every ordering prefix
  with a GTL metric and extract the prefix at the clear minimum.
* **Phase III** (:mod:`repro.finder.refine` / :mod:`repro.finder.prune`) —
  genetic refinement around each candidate, then greedy disjoint pruning.

:func:`find_tangled_logic` runs the whole pipeline.
"""

from repro.finder.config import FinderConfig
from repro.finder.result import GTL, FinderReport
from repro.finder.ordering import LinearOrderingGrower, grow_linear_ordering
from repro.finder.candidate import CandidateGTL, extract_candidate
from repro.finder.refine import refine_candidate
from repro.finder.prune import prune_overlapping
from repro.finder.finder import TangledLogicFinder, find_tangled_logic
from repro.finder.hierarchy import GTLNode, find_hierarchical_gtls
from repro.finder.seeding import draw_seeds

__all__ = [
    "FinderConfig",
    "GTL",
    "FinderReport",
    "LinearOrderingGrower",
    "grow_linear_ordering",
    "CandidateGTL",
    "extract_candidate",
    "refine_candidate",
    "prune_overlapping",
    "TangledLogicFinder",
    "find_tangled_logic",
    "GTLNode",
    "find_hierarchical_gtls",
    "draw_seeds",
]
