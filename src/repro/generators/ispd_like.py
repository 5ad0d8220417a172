"""ISPD-05/06-shaped synthetic placement benchmarks (Table 2 substitute).

The real ISPD 2005/2006 benchmarks (bigblue1-3, adaptec1-3) are industrial
netlists that cannot be redistributed here; per DESIGN.md §4 this generator
synthesizes designs of the same character: a sea of small-fanin glue logic
with a realistic net-degree distribution, a ring of fixed IO pads, and a
number of embedded dense structures (dissolved ROMs, decoders, mux clusters,
multipliers) whose membership is retained as ground truth.

Real benchmarks in Bookshelf format remain first-class citizens: parse them
with :mod:`repro.io.bookshelf` and run the same experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import GenerationError
from repro.generators.circuit_builder import CircuitBuilder
from repro.generators.structures import (
    StructurePorts,
    build_carry_lookahead_adder,
    build_decoder,
    build_dissolved_rom,
    build_modular_glue,
    build_multiplier,
    build_mux_tree,
)
from repro.netlist.hypergraph import Netlist
from repro.utils.rng import RngLike, ensure_rng


@dataclass(frozen=True)
class EmbeddedStructure:
    """One structure to embed: ``kind`` + its size parameter.

    Supported kinds and the meaning of ``param``:
      * ``"rom"``   — address bits (cells ~ ``2**param * 1.5``)
      * ``"decoder"`` — address bits (cells ~ ``2**param``)
      * ``"mux"``   — data inputs (cells ~ ``param``)
      * ``"cla"``   — adder bits (cells ~ ``3 * param**1.3``)
      * ``"mul"``   — operand bits (cells ~ ``2 * param**2``)
    """

    kind: str
    param: int
    word_bits: int = 32  # only for "rom"

    VALID_KINDS = ("rom", "decoder", "mux", "cla", "mul")

    def __post_init__(self) -> None:
        if self.kind not in self.VALID_KINDS:
            raise GenerationError(f"unknown structure kind {self.kind!r}")
        if self.param < 2:
            raise GenerationError("structure param must be >= 2")


@dataclass(frozen=True)
class IspdLikeSpec:
    """Parameters of one synthetic ISPD-like benchmark.

    Attributes:
        name: benchmark name (e.g. ``"bigblue1-like"``).
        glue_gates: number of background glue-logic gates.
        structures: the embedded structures.
        num_pads: fixed IO pads placed on the die boundary.
        tap_fraction: fraction of each structure's outputs consumed by glue
            buffers (models downstream logic; keeps structure cuts realistic).
    """

    name: str
    glue_gates: int
    structures: Tuple[EmbeddedStructure, ...]
    num_pads: int = 64
    tap_fraction: float = 0.75

    def __post_init__(self) -> None:
        if self.glue_gates < 10:
            raise GenerationError("glue_gates must be >= 10")
        if self.num_pads < 4:
            raise GenerationError("num_pads must be >= 4")
        if not 0 <= self.tap_fraction <= 1:
            raise GenerationError("tap_fraction must be in [0, 1]")


def default_bigblue1_like(scale: float = 1.0) -> IspdLikeSpec:
    """A bigblue1-shaped spec: ~17K cells at scale 1.0 (278K in the paper).

    The structure mix mirrors Table 2's finding of GTLs between ~300 and
    ~14K cells: several dissolved ROMs, decoders and datapath blocks.
    """
    return IspdLikeSpec(
        name="bigblue1-like",
        glue_gates=int(12000 * scale),
        structures=(
            EmbeddedStructure("rom", 7, word_bits=48),
            EmbeddedStructure("rom", 6, word_bits=32),
            EmbeddedStructure("decoder", 8),
            EmbeddedStructure("mul", 16),
            EmbeddedStructure("mux", 96),
            EmbeddedStructure("cla", 32),
        ),
        num_pads=96,
    )


def ispd_like_suite(scale: float = 1.0) -> List[IspdLikeSpec]:
    """Specs shaped after the six benchmarks of Table 2.

    Sizes follow the relative |V| proportions of bigblue1-3 and adaptec1-3
    (278K..1.1M cells in the paper), at ``scale`` times a laptop-friendly
    base.  Structure mixes vary the way the paper's found-GTL profiles do:
    bigblue2 has the largest structures, bigblue3 many small ones, the
    adaptecs a moderate datapath-flavored mix.
    """
    return [
        default_bigblue1_like(scale),
        IspdLikeSpec(
            name="bigblue2-like",
            glue_gates=int(24000 * scale),
            structures=(
                EmbeddedStructure("rom", 8, word_bits=96),
                EmbeddedStructure("rom", 7, word_bits=64),
                EmbeddedStructure("rom", 7, word_bits=48),
                EmbeddedStructure("mul", 24),
                EmbeddedStructure("decoder", 8),
            ),
            num_pads=128,
        ),
        IspdLikeSpec(
            name="bigblue3-like",
            glue_gates=int(48000 * scale),
            structures=(
                EmbeddedStructure("rom", 6, word_bits=24),
                EmbeddedStructure("rom", 5, word_bits=16),
                EmbeddedStructure("rom", 7, word_bits=64),
                EmbeddedStructure("decoder", 7),
                EmbeddedStructure("mux", 64),
                EmbeddedStructure("cla", 24),
            ),
            num_pads=192,
        ),
        IspdLikeSpec(
            name="adaptec1-like",
            glue_gates=int(9000 * scale),
            structures=(
                EmbeddedStructure("rom", 6, word_bits=48),
                EmbeddedStructure("rom", 6, word_bits=40),
                EmbeddedStructure("decoder", 6),
                EmbeddedStructure("mul", 12),
            ),
            num_pads=64,
        ),
        IspdLikeSpec(
            name="adaptec2-like",
            glue_gates=int(11000 * scale),
            structures=(
                EmbeddedStructure("rom", 5, word_bits=32),
                EmbeddedStructure("rom", 6, word_bits=56),
                EmbeddedStructure("decoder", 7),
                EmbeddedStructure("mux", 48),
            ),
            num_pads=64,
        ),
        IspdLikeSpec(
            name="adaptec3-like",
            glue_gates=int(20000 * scale),
            structures=(
                EmbeddedStructure("rom", 5, word_bits=24),
                EmbeddedStructure("rom", 5, word_bits=20),
                EmbeddedStructure("rom", 6, word_bits=32),
                EmbeddedStructure("cla", 16),
            ),
            num_pads=96,
        ),
    ]


def generate_ispd_like(
    spec: IspdLikeSpec, seed: RngLike = None
) -> Tuple[Netlist, Dict[str, frozenset]]:
    """Generate the benchmark; returns ``(netlist, ground_truth)``.

    ``ground_truth`` maps structure instance names to their member cells.
    """
    rng = ensure_rng(seed)
    circuit = CircuitBuilder()

    modules = build_modular_glue(
        circuit, spec.glue_gates, rng=rng, name=f"{spec.name}_glue"
    )
    num_modules = len(modules)

    ground_truth: Dict[str, frozenset] = {}
    for index, embedded in enumerate(spec.structures):
        instance = f"{spec.name}_{embedded.kind}{index}"
        # Each structure serves a distinct home module (see industrial.py).
        home = (index * max(1, num_modules // max(1, len(spec.structures)))) % num_modules
        home_wires = list(modules[home].inputs) + list(modules[home].outputs)
        inputs = [rng.choice(home_wires) for _ in range(_input_count(embedded))]
        ports = _build_structure(circuit, embedded, inputs, instance, rng)
        ground_truth[instance] = frozenset(ports.cells)
        _tap_outputs(circuit, ports, home_wires, spec.tap_fraction, rng)

    pad_candidates: List[int] = []
    for block in modules:
        pad_candidates.extend(block.inputs[:4])
    for index in range(spec.num_pads):
        wire = pad_candidates[index % len(pad_candidates)]
        circuit.add_pad(wire, name=f"pad{index}")

    netlist = circuit.finish()
    return netlist, ground_truth


# ----------------------------------------------------------------------
def _input_count(embedded: EmbeddedStructure) -> int:
    if embedded.kind in ("rom", "decoder"):
        return embedded.param
    if embedded.kind == "mux":
        return embedded.param
    if embedded.kind == "cla":
        return 2 * embedded.param + 1
    return 2 * embedded.param  # mul


def _build_structure(
    circuit: CircuitBuilder,
    embedded: EmbeddedStructure,
    inputs: List[int],
    instance: str,
    rng,
) -> StructurePorts:
    if embedded.kind == "rom":
        return build_dissolved_rom(
            circuit,
            embedded.param,
            embedded.word_bits,
            rng=rng,
            inputs=inputs,
            name=instance,
        )
    if embedded.kind == "decoder":
        return build_decoder(circuit, embedded.param, inputs=inputs, name=instance)
    if embedded.kind == "mux":
        return build_mux_tree(circuit, embedded.param, inputs=inputs, name=instance)
    if embedded.kind == "cla":
        return build_carry_lookahead_adder(
            circuit, embedded.param, inputs=inputs, name=instance
        )
    return build_multiplier(circuit, embedded.param, inputs=inputs, name=instance)


def _sample_wires(wires: List[int], count: int, rng) -> List[int]:
    if count <= len(wires):
        return rng.sample(wires, count)
    return [rng.choice(wires) for _ in range(count)]


def _tap_outputs(
    circuit: CircuitBuilder,
    ports: StructurePorts,
    glue_wires: List[int],
    tap_fraction: float,
    rng,
) -> List[int]:
    """Consume a fraction of structure outputs with glue-side gates.

    Each tapped output drives one NAND2 whose other input is a random glue
    wire — downstream consumption without merging the structure into glue.
    """
    taps: List[int] = []
    for wire in ports.outputs:
        if rng.random() > tap_fraction:
            continue
        other = rng.choice(glue_wires)
        cell, _ = circuit.add_gate(
            "NAND2", [wire, other], name=f"{ports.name}_tap{len(taps)}"
        )
        taps.append(cell)
    return taps


