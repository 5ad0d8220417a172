"""Benchmark: the paper's other two GTL applications (Chapter I).

* Soft blocks (floorplanning): a found GTL constrained as a soft block
  stays at least as coherent as the unconstrained placement.
* Re-synthesis: decomposing a GTL's complex gates lowers its pin density
  without changing its external cut — the structural precondition for the
  "more area, less interconnect" trade the paper describes.
"""

import numpy as np

from repro.apps import decompose_complex_gates
from repro.finder import FinderConfig, find_tangled_logic
from repro.flow import place_with_soft_blocks
from repro.generators.industrial import IndustrialSpec, generate_industrial
from repro.netlist.ops import cut_size, group_pin_count


def run_applications(seed: int = 4):
    spec = IndustrialSpec(glue_gates=5000, rom_blocks=((5, 32),), num_pads=64)
    netlist, truth = generate_industrial(spec, seed=seed)
    report = find_tangled_logic(netlist, FinderConfig(num_seeds=48, seed=seed + 1))
    block = sorted(report.gtls[0].cells) if report.gtls else sorted(truth[0])

    # Soft blocks.
    free = place_with_soft_blocks(netlist, [], utilization=0.5)
    constrained = place_with_soft_blocks(netlist, [block], utilization=0.5)

    def dispersion(placement):
        xs, ys = placement.x[block], placement.y[block]
        return float(np.hypot(xs - xs.mean(), ys - ys.mean()).mean())

    # Re-synthesis.
    old_cut = cut_size(netlist, block)
    old_area = sum(netlist.cell_area(c) for c in block)
    old_pins = group_pin_count(netlist, block)
    new_netlist, mapping = decompose_complex_gates(netlist, block)
    new_block = [c for old in block for c in mapping[old]]
    new_cut = cut_size(new_netlist, new_block)
    new_area = sum(new_netlist.cell_area(c) for c in new_block)
    new_pins = group_pin_count(new_netlist, new_block)

    return {
        "dispersion_free": dispersion(free),
        "dispersion_soft": dispersion(constrained),
        "cut": (old_cut, new_cut),
        "pin_density": (old_pins / old_area, new_pins / new_area),
        "area": (old_area, new_area),
    }


def test_applications(benchmark, once):
    results = benchmark.pedantic(run_applications, **once)
    print(
        f"\nsoft block dispersion: free {results['dispersion_free']:.1f} -> "
        f"constrained {results['dispersion_soft']:.1f}"
    )
    print(
        f"resynthesis: cut {results['cut'][0]} -> {results['cut'][1]}, "
        f"pin density {results['pin_density'][0]:.2f} -> "
        f"{results['pin_density'][1]:.2f}, area {results['area'][0]:.0f} -> "
        f"{results['area'][1]:.0f}"
    )
    assert results["dispersion_soft"] <= results["dispersion_free"] * 1.05
    assert results["cut"][1] == results["cut"][0], "external cut preserved"
    assert results["pin_density"][1] < results["pin_density"][0], (
        "re-instantiation trades area for lower pin density"
    )
    assert results["area"][1] > results["area"][0]
