"""Applications of detected GTLs (Chapter I of the paper).

The paper motivates GTL detection with three uses:

* **Routability** — cell inflation inside GTLs
  (:func:`repro.placement.inflate_cells`, exercised by Figure 7);
* **Floorplanning** — treat each GTL as a *soft block* whose members
  attract each other during placement (:mod:`repro.apps.soft_blocks`);
* **Logic re-synthesis** — re-instantiate a GTL with more area but less
  interconnect pressure by decomposing its complex gates
  (:mod:`repro.apps.resynthesis`).
"""

from repro.apps.soft_blocks import soft_block_nets
from repro.apps.resynthesis import decompose_complex_gates

__all__ = [
    "soft_block_nets",
    "decompose_complex_gates",
]
