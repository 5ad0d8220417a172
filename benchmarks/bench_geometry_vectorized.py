"""Scalar vs vectorized geometry hot paths on an ISPD-like design.

Measures the three paths PR 2 vectorized — total HPWL, the RUDY congestion
map, and quadratic system assembly — in both backends on one generated
bigblue1-shaped design, asserts scalar/vectorized parity within 1e-9, and
(at full scale) requires the vectorized HPWL + congestion build to be at
least 5x faster than the scalar reference.

Prints a one-line JSON summary (sizes, per-path timings, speedups).

``REPRO_BENCH_SMOKE=1`` shrinks the design to CI-smoke size and skips the
speedup floor (a tiny design cannot amortize numpy call overhead); the
parity checks always run.
"""

import json
import os
import time

import numpy as np

from repro.generators.ispd_like import default_bigblue1_like, generate_ispd_like
from repro.netlist.backend import forced_backend
from repro.placement.pads import assign_pad_positions
from repro.placement.placer import Placement
from repro.placement.quadratic import assemble_quadratic_system
from repro.placement.region import Die
from repro.routing.congestion import build_congestion_map

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
SCALE = 0.02 if SMOKE else 1.4
GRID = (8, 8) if SMOKE else (48, 48)


def _make_placement():
    netlist, _ = generate_ispd_like(default_bigblue1_like(SCALE), seed=3)
    die = Die.for_area(float(netlist.arrays.areas.sum()), utilization=0.6)
    rng = np.random.default_rng(11)
    placement = Placement(
        netlist=netlist,
        die=die,
        x=rng.uniform(0.0, die.width, netlist.num_cells),
        y=rng.uniform(0.0, die.height, netlist.num_cells),
    )
    pads = assign_pad_positions(netlist, die)
    return placement, pads


def _timed(backend, function):
    with forced_backend(backend):
        start = time.perf_counter()
        result = function()
        return time.perf_counter() - start, result


def test_geometry_vectorized_parity_and_speedup(benchmark, once):
    placement, pads = _make_placement()
    netlist = placement.netlist
    netlist.arrays  # build the flat view outside the timed regions

    hpwl_scalar_t, hpwl_scalar = _timed("python", placement.hpwl)
    hpwl_vector_t, hpwl_vector = _timed("numpy", placement.hpwl)

    rudy_scalar_t, rudy_scalar = _timed(
        "python", lambda: build_congestion_map(placement, grid=GRID)
    )
    rudy_vector_t, rudy_vector = _timed(
        "numpy", lambda: build_congestion_map(placement, grid=GRID)
    )

    asm_scalar_t, asm_scalar = _timed(
        "python", lambda: assemble_quadratic_system(netlist, pads)
    )
    asm_vector_t, asm_vector = _timed(
        "numpy",
        lambda: benchmark.pedantic(
            assemble_quadratic_system, args=(netlist, pads), **once
        ),
    )

    # Parity: every vectorized path matches its scalar reference.
    assert hpwl_vector == hpwl_scalar  # bit-identical by construction
    np.testing.assert_allclose(
        rudy_vector.demand, rudy_scalar.demand, rtol=1e-12, atol=1e-9
    )
    assert rudy_vector.net_boxes == rudy_scalar.net_boxes
    difference = (asm_scalar[0] - asm_vector[0]).tocoo()
    max_delta = np.abs(difference.data).max() if difference.nnz else 0.0
    assert max_delta <= 1e-9
    np.testing.assert_allclose(asm_vector[1], asm_scalar[1], atol=1e-9)
    np.testing.assert_allclose(asm_vector[2], asm_scalar[2], atol=1e-9)

    hot_speedup = (hpwl_scalar_t + rudy_scalar_t) / max(
        hpwl_vector_t + rudy_vector_t, 1e-9
    )
    summary = {
        "cells": netlist.num_cells,
        "nets": netlist.num_nets,
        "grid": list(GRID),
        "smoke": SMOKE,
        "hpwl": {
            "total": hpwl_vector,
            "scalar_s": round(hpwl_scalar_t, 4),
            "vector_s": round(hpwl_vector_t, 4),
            "speedup": round(hpwl_scalar_t / max(hpwl_vector_t, 1e-9), 1),
        },
        "rudy": {
            "scalar_s": round(rudy_scalar_t, 4),
            "vector_s": round(rudy_vector_t, 4),
            "speedup": round(rudy_scalar_t / max(rudy_vector_t, 1e-9), 1),
        },
        "assembly": {
            "scalar_s": round(asm_scalar_t, 4),
            "vector_s": round(asm_vector_t, 4),
            "speedup": round(asm_scalar_t / max(asm_vector_t, 1e-9), 1),
        },
        "hpwl_plus_rudy_speedup": round(hot_speedup, 1),
    }
    print("\n" + json.dumps(summary))

    if not SMOKE:
        # Acceptance: >= 20k cells and >= 5x on total HPWL + RUDY build.
        assert netlist.num_cells >= 20_000
        assert hot_speedup >= 5.0
