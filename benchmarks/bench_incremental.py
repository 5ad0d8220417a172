"""Incremental re-detect vs full recompute after a tiny netlist edit.

The incremental engine's value proposition (ISSUE: PR 9) is that an ECO-
sized edit — a handful of pins rewired inside one neighbourhood of a
~53K-cell industrial design — should *not* cost a full Phase I-III
detection sweep.  :func:`repro.incremental.incremental_detect` diffs the
two netlists, expands the edit's endpoints into a dirty region over the
hypergraph, re-runs only the seed jobs whose recorded footprints touch
that region, and splices the fresh outcomes into the cached trace.

This benchmark measures exactly that trade at full scale:

* ``base``    — a traced cold run on the unedited design (produces the
  :class:`~repro.incremental.SeedTrace` the patch path consumes);
* ``full``    — a cold re-run on the *edited* design (the baseline an
  un-incremental flow would pay);
* ``patched`` — ``incremental_detect`` over the same edit.

Acceptance (full scale only): the patched run is **>= 10x** faster than
the cold re-run, and its report is bit-identical to the cold run's.
Parity is additionally asserted under the scalar reference backend on a
reduced design (running the scalar kernel twice at 53K cells would
dominate the wall clock without telling us anything new).

The edit is deliberately *localized*: pins move only between cells of one
low-fanout neighbourhood, and the finder runs with an explicit small
``max_order_length``.  With the default Z = |V|/4 every seed footprint
covers ~a quarter of the design and any edit dirties everything — the
incremental path exists for the many-small-regions regime, and the
benchmark is honest about configuring it.

A second row, ``industrial53k_apply``, times what a daemon delta submit
pays before the finder runs: applying the same edit to the pack-loaded
base and fingerprinting the result, through the builder (the scalar
reference) and through the CSR splice (the numpy backend).  Both edited
designs must be equal, arrays and name tables included; at full scale
the splice must be >= 5x faster.

Results land in ``BENCH_incremental.json`` (headline: ``speedup``).
``REPRO_BENCH_SMOKE=1`` shrinks the design and skips both floors.
"""

import os
import random
import statistics
import tempfile
import time

import numpy as np

try:
    from benchmarks._record import record
except ImportError:  # invoked outside the repo root: benchmarks/ is on sys.path
    from _record import record
from repro.finder.config import FinderConfig
from repro.generators.industrial import IndustrialSpec, generate_industrial
from repro.incremental import (
    CellEdit,
    NetEdit,
    NetlistDelta,
    apply_delta,
    diff,
    incremental_detect,
    run_traced,
)
from repro.io import load_packed, write_packed
from repro.netlist.backend import forced_backend
from repro.service.codec import report_to_dict
from repro.service.fingerprint import fingerprint_netlist

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

if SMOKE:
    SMALL_SPEC = IndustrialSpec(glue_gates=1200, rom_blocks=((4, 10),))
    BIG_SPEC = IndustrialSpec(glue_gates=2500, rom_blocks=((5, 16), (5, 16)))
    NUM_SEEDS = 12
    ORDER_LENGTH = 64
    NUM_MOVES = 3
else:
    SMALL_SPEC = IndustrialSpec(glue_gates=1500, rom_blocks=((4, 12), (4, 10)))
    BIG_SPEC = IndustrialSpec(
        glue_gates=30000,
        rom_blocks=((10, 384), (10, 384), (9, 192)),
    )
    NUM_SEEDS = 32
    ORDER_LENGTH = 384
    NUM_MOVES = 6

#: Nets fatter than this are never edited and cells on them never host a
#: moved pin — a single fat-net endpoint would drag hundreds of cells
#: into the dirty region and turn the "tiny edit" into a full re-run.
MAX_EDIT_DEGREE = 6


def _quiet(netlist, cell):
    """True when every net of ``cell`` is low-fanout."""
    return all(
        len(netlist.cells_of_net(net)) <= MAX_EDIT_DEGREE
        for net in netlist.nets_of_cell(cell)
    )


def _localized_delta(netlist, num_moves, rng):
    """Rewire ``num_moves`` pins inside one low-fanout neighbourhood.

    Returns a :class:`NetlistDelta` that moves single pins between quiet
    cells (total pin count invariant, no adds/removes), the shape of edit
    the incremental path is built for.
    """
    movable = netlist.movable_cells()
    anchor = next(
        cell
        for cell in movable[len(movable) // 3:]
        if _quiet(netlist, cell)
    )
    hood = sorted(
        {anchor}
        | {n for n in netlist.neighbors(anchor) if _quiet(netlist, n)}
    )
    movement = {}
    net_edits = {}
    for cell in hood:
        if len(net_edits) >= num_moves:
            break
        for net in netlist.nets_of_cell(cell):
            if len(net_edits) >= num_moves or net in net_edits:
                continue
            members = list(netlist.cells_of_net(net))
            if len(members) > MAX_EDIT_DEGREE:
                continue
            targets = [t for t in hood if t not in members]
            if not targets:
                continue
            target = targets[rng.randrange(len(targets))]
            new_members = [target if m == cell else m for m in members]
            net_edits[net] = (
                tuple(netlist.cell_name(m) for m in members),
                tuple(netlist.cell_name(m) for m in new_members),
            )
            movement[cell] = movement.get(cell, 0) - 1
            movement[target] = movement.get(target, 0) + 1
    return NetlistDelta(
        cells_changed=tuple(
            CellEdit(
                netlist.cell_name(cell),
                netlist.cell_area(cell),
                netlist.cell_pin_count(cell) + shift,
                netlist.cell_is_fixed(cell),
            )
            for cell, shift in sorted(movement.items())
            if shift != 0
        ),
        nets_changed=tuple(
            NetEdit(netlist.net_name(net), old, new)
            for net, (old, new) in sorted(net_edits.items())
        ),
    )


def _comparable(report):
    """Report payload with the one legitimately-varying field removed."""
    payload = report_to_dict(report)
    payload.pop("runtime_seconds", None)
    return payload


def _run_scenario(spec, backend, seed=7):
    """base trace -> localized edit -> cold re-run vs incremental patch."""
    with forced_backend(backend):
        base, _ = generate_industrial(spec, seed=seed)
        config = FinderConfig(
            num_seeds=NUM_SEEDS,
            max_order_length=ORDER_LENGTH,
            seed=seed,
        )
        delta = _localized_delta(base, NUM_MOVES, random.Random(seed))
        edited = apply_delta(base, delta)
        assert diff(base, edited) == delta  # the edit model round-trips

        start = time.perf_counter()
        base_report, seed_trace = run_traced(base, config)
        base_seconds = time.perf_counter() - start

        start = time.perf_counter()
        full_report, _ = run_traced(edited, config)
        full_seconds = time.perf_counter() - start

        # The patch runs on its own copy of the edited design, as a freshly
        # applied edit would: on ``edited`` the ordering memo would hand it
        # the orderings the cold re-run just grew.
        patch_target = apply_delta(base, delta)
        start = time.perf_counter()
        result = incremental_detect(base, patch_target, seed_trace, config)
        incremental_seconds = time.perf_counter() - start

    assert _comparable(result.report) == _comparable(full_report), (
        f"[{backend}] patched report diverges from cold re-run"
    )
    assert result.mode == "incremental", (
        f"[{backend}] expected an incremental patch, got {result.mode!r} "
        f"({result.reason})"
    )
    return {
        "backend": backend,
        "cells": base.num_cells,
        "pins": base.num_pins,
        "pins_rewired": len(delta.nets_changed),
        "dirty_cells": result.dirty_cells,
        "dirty_fraction": round(result.dirty_fraction, 6),
        "seeds_total": result.seeds_total,
        "seeds_recomputed": result.seeds_recomputed,
        "base_seconds": round(base_seconds, 4),
        "full_seconds": round(full_seconds, 4),
        "incremental_seconds": round(incremental_seconds, 4),
        "speedup": round(full_seconds / max(incremental_seconds, 1e-9), 2),
        "num_gtls": result.report.num_gtls,
    }


def _apply_scenario(spec, seed=7, repeats=5):
    """Apply plus fingerprint of one localized edit on a pack-loaded base,
    as the daemon serves a delta submit: builder (scalar backend) vs
    splice (numpy backend), median of ``repeats`` timed runs each."""
    base, _ = generate_industrial(spec, seed=seed)
    delta = _localized_delta(base, NUM_MOVES, random.Random(seed))
    timings = {}
    edited = {}
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "base.nla")
        write_packed(base, path)
        packed = load_packed(path)
        for backend, label in (("python", "builder"), ("numpy", "splice")):
            apply_s, fingerprint_s = [], []
            for _ in range(repeats):
                with forced_backend(backend):
                    start = time.perf_counter()
                    edited[label] = apply_delta(packed, delta)
                    middle = time.perf_counter()
                    fingerprint = fingerprint_netlist(edited[label])
                    apply_s.append(middle - start)
                    fingerprint_s.append(time.perf_counter() - middle)
            timings[label] = (statistics.median(apply_s),
                              statistics.median(fingerprint_s), fingerprint)
    builder, splice = edited["builder"], edited["splice"]
    assert splice == builder and builder == splice
    for field in vars(builder.arrays):
        assert np.array_equal(
            getattr(splice.arrays, field), getattr(builder.arrays, field)
        ), field
    assert splice.cell_table == builder.cell_table
    assert splice.net_table == builder.net_table
    assert timings["builder"][2] == timings["splice"][2]
    row = {"cells": splice.num_cells, "nets": splice.num_nets,
           "pins_rewired": len(delta.nets_changed),
           "cpu_count": os.cpu_count(), "repeats": repeats}
    for label, (apply_s, fingerprint_s, _) in timings.items():
        row[f"{label}_apply_ms"] = round(1000 * apply_s, 2)
        row[f"{label}_fingerprint_ms"] = round(1000 * fingerprint_s, 2)
        row[f"{label}_total_ms"] = round(1000 * (apply_s + fingerprint_s), 2)
    row["speedup"] = round(row["builder_total_ms"] / row["splice_total_ms"], 2)
    return row


def run():
    # Scalar-reference parity on the reduced design: the invariant is
    # backend-independent, the scalar kernel's speed is not.
    scalar = _run_scenario(SMALL_SPEC, "python")
    small = _run_scenario(SMALL_SPEC, "numpy")
    big = _run_scenario(BIG_SPEC, "numpy")
    apply_row = _apply_scenario(BIG_SPEC)

    results = {
        "parity_scalar_small": scalar,
        "parity_numpy_small": small,
        "industrial53k": big,
        "industrial53k_apply": apply_row,
        "speedup": big["speedup"],
        "smoke": SMOKE,
    }
    if not SMOKE:
        assert big["cells"] >= 50_000, big["cells"]
        assert big["pins_rewired"] <= 0.01 * big["pins"]
        assert big["speedup"] >= 10.0, (
            f"incremental re-detect only {big['speedup']}x faster than a "
            f"cold run ({big['seeds_recomputed']}/{big['seeds_total']} "
            f"seeds recomputed)"
        )
        assert apply_row["cells"] >= 50_000, apply_row["cells"]
        assert apply_row["speedup"] >= 5.0, (
            f"spliced apply + fingerprint only {apply_row['speedup']}x faster "
            f"than the builder path"
        )
    record("incremental", results, smoke=SMOKE, headline="speedup")
    for name in ("parity_scalar_small", "parity_numpy_small", "industrial53k"):
        row = results[name]
        print(
            f"{name:22s} backend={row['backend']:6s} cells={row['cells']:6d} "
            f"dirty={row['dirty_cells']:4d} "
            f"seeds={row['seeds_recomputed']}/{row['seeds_total']} "
            f"full={row['full_seconds']:.3f}s "
            f"inc={row['incremental_seconds']:.3f}s "
            f"speedup={row['speedup']}x"
        )
    print(
        f"industrial53k_apply    cells={apply_row['cells']:6d} "
        f"builder={apply_row['builder_total_ms']:.1f}ms "
        f"splice={apply_row['splice_total_ms']:.1f}ms "
        f"(apply + fingerprint) speedup={apply_row['speedup']}x"
    )
    return results


def test_incremental_speedup():
    """Pytest entry point (CI smoke runs this with REPRO_BENCH_SMOKE=1)."""
    run()


if __name__ == "__main__":
    run()
