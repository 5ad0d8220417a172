"""The "industrial circuit" substitute (Table 3, Figures 1/6/7).

The paper's industrial 65 nm ASIC contained five ROM blocks that were
dissolved into ordinary logic for timing closure; those dissolved ROMs are
exactly the GTLs its method finds (Table 3: four blocks of ~32K cells and
one of ~11K), and they show up as distinct congestion blobs in part of the
die (Fig 1).  This generator reproduces that situation at configurable
scale: modular background glue (a hierarchy of sparsely bridged functional
units, like a real ASIC floorplan), five dissolved-ROM blocks each serving a
specific *home module* (so placement anchors them at distinct locations),
and boundary IO pads.  Ground-truth ROM membership is retained so the
designed-vs-found comparison of Table 3 is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import GenerationError
from repro.generators.circuit_builder import CircuitBuilder
from repro.generators.structures import (
    build_dissolved_rom,
    build_modular_glue,
)
from repro.netlist.hypergraph import Netlist
from repro.utils.rng import RngLike, ensure_rng


@dataclass(frozen=True)
class IndustrialSpec:
    """Parameters of the industrial-like design.

    Attributes:
        glue_gates: total background glue gate count.
        glue_modules: number of glue modules (0 = auto, ~1 per 400 gates).
        rom_blocks: ``(addr_bits, word_bits)`` per dissolved ROM block.  The
            default follows Table 3's shape — four equal large blocks plus
            one at roughly a third of their size.
        num_pads: boundary IO pads.
        tap_fraction: fraction of ROM outputs consumed by glue.
    """

    glue_gates: int = 12000
    glue_modules: int = 0
    rom_blocks: Tuple[Tuple[int, int], ...] = (
        (6, 64),
        (6, 64),
        (6, 64),
        (6, 64),
        (5, 24),
    )
    num_pads: int = 128
    tap_fraction: float = 0.8

    def __post_init__(self) -> None:
        if self.glue_gates < 100:
            raise GenerationError("glue_gates must be >= 100")
        if len(self.rom_blocks) < 1:
            raise GenerationError("need at least one ROM block")
        for addr, word in self.rom_blocks:
            if addr < 3 or word < 4:
                raise GenerationError(f"ROM block ({addr}, {word}) too small")
        if not 0 <= self.tap_fraction <= 1:
            raise GenerationError("tap_fraction must be in [0, 1]")


def generate_industrial(
    spec: IndustrialSpec = IndustrialSpec(), seed: RngLike = None
) -> Tuple[Netlist, List[frozenset]]:
    """Generate the industrial-like design.

    Returns ``(netlist, ground_truth)`` with one frozenset of cell indices
    per dissolved ROM block, in ``spec.rom_blocks`` order.
    """
    rng = ensure_rng(seed)
    circuit = CircuitBuilder()

    modules = build_modular_glue(
        circuit,
        spec.glue_gates,
        modules=spec.glue_modules,
        rng=rng,
        name="core",
    )

    ground_truth: List[frozenset] = []
    num_modules = len(modules)
    for index, (addr_bits, word_bits) in enumerate(spec.rom_blocks):
        # Each ROM serves a distinct home module, so placement anchors the
        # blocks at distinct spots on the die (Fig 1's separate blobs).
        home = (index * max(1, num_modules // max(1, len(spec.rom_blocks)))) % num_modules
        home_wires = list(modules[home].inputs) + list(modules[home].outputs)
        inputs = [rng.choice(home_wires) for _ in range(addr_bits)]
        ports = build_dissolved_rom(
            circuit,
            addr_bits,
            word_bits,
            rng=rng,
            inputs=inputs,
            name=f"rom{index}",
        )
        ground_truth.append(frozenset(ports.cells))
        neighbor_wires = home_wires + list(
            modules[(home + 1) % num_modules].inputs
        ) + list(modules[(home + 1) % num_modules].outputs)
        for serial, wire in enumerate(ports.outputs):
            if rng.random() > spec.tap_fraction:
                continue
            other = rng.choice(neighbor_wires)
            cell, _ = circuit.add_gate(
                "NAND2", [wire, other], name=f"rom{index}_tap{serial}"
            )
            modules[home].cells.append(cell)

    pad_candidates: List[int] = []
    for block in modules:
        pad_candidates.extend(block.inputs[:4])
    for index in range(spec.num_pads):
        wire = pad_candidates[index % len(pad_candidates)]
        circuit.add_pad(wire, name=f"pad{index}")

    return circuit.finish(), ground_truth
