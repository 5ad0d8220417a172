"""Scalar vs compiled detection kernel on industrial designs.

Runs the full three-phase finder two ways (see :mod:`repro.finder.kernel`)
on two `generators.industrial` scenarios:

* ``small`` — the default ~15K-cell Table-3 design;
* ``industrial50k`` — a ~53K-cell variant with large dissolved ROMs
  (~8.7K cells each) around wide (2^10-line) decoders, the fat-fanout
  regime the paper's industrial testcase describes.

The two ways are the scalar reference (``scalar_s``) and the numpy backend
on the compiled C grow kernel (``compiled_s``); ``speedup`` is scalar over
compiled.  Both must produce bit-identical reports — same GTL cell sets,
sizes, cuts and seeds, scores within 1e-9 — which is the invariant that
lets flow caches be shared across backends.

The 50K scenario is measured in two finder configurations:

* ``exact`` — ``lambda_skip=0``, the paper's exact connection-weight
  algorithm with no update skipping.  The numpy backend must be **>= 5x**
  faster than the scalar reference at full scale (the scalar path drowns
  in per-pin dict updates and a garbage-clogged lazy heap).
* ``lambda20`` — the default skip optimization, which shrinks update
  volume for both backends and narrows the gap; no floor asserted.

``industrial50k_grow`` times Phase I alone: the finder's planned seed
orderings at 53K grown by the scalar grower (the numpy backend's fallback
when no kernel can be built) and by the C kernel, which must agree on
every ordering and push count and, at full scale, be **>= 5x** apart.

``industrial50k_grow_extract`` times Phase I + II per ordering on the
numpy backend, two ways: with the prefix curves the C kernel records
while it grows (``kernel_curves_ms``) and with the ordering re-scanned by
:func:`~repro.netlist.ops.scan_ordering_curves` afterwards
(``rescan_ms``).  Both must give the same candidate and Rent estimate.

Results are written to ``BENCH_finder_kernel.json`` at the repo root via
:mod:`benchmarks._record` (the machine-readable perf trajectory).

``REPRO_BENCH_SMOKE=1`` shrinks both scenarios to CI-smoke size and skips
the speedup floors (tiny designs cannot amortize anything); the parity
checks always run.
"""

import os
import pickle
import time

try:
    from benchmarks._record import record
except ImportError:  # invoked outside the repo root: benchmarks/ is on sys.path
    from _record import record
from repro.finder.candidate import extract_candidate_and_rent
from repro.finder.config import FinderConfig
from repro.finder.finder import TangledLogicFinder, plan_seed_jobs
from repro.finder.kernel import KernelTables, compiled_kernel, grow_ordering
from repro.finder.ordering import LinearOrderingGrower
from repro.generators.industrial import IndustrialSpec, generate_industrial
from repro.netlist.backend import forced_backend
from repro.obs import RunReport, trace

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

if SMOKE:
    SMALL_SPEC = IndustrialSpec(glue_gates=1500, rom_blocks=((4, 12), (4, 10)))
    BIG_SPEC = IndustrialSpec(glue_gates=2500, rom_blocks=((5, 16), (5, 16)))
    NUM_SEEDS = 4
else:
    SMALL_SPEC = IndustrialSpec()  # the default Table-3-like design (~15K)
    BIG_SPEC = IndustrialSpec(
        glue_gates=30000,
        rom_blocks=((10, 384), (10, 384), (9, 192)),
    )
    NUM_SEEDS = 8


def _run_backend(netlist, config, backend):
    with forced_backend(backend):
        start = time.perf_counter()
        report = TangledLogicFinder(netlist, config).run()
        return time.perf_counter() - start, report


def _assert_reports_identical(scalar_report, array_report, tolerance=1e-9):
    """Bit-identical GTL sets; scores within ``tolerance``; same exponent."""
    assert scalar_report.num_gtls == array_report.num_gtls
    assert scalar_report.num_orderings == array_report.num_orderings
    assert scalar_report.num_candidates == array_report.num_candidates
    assert scalar_report.rent_fallback == array_report.rent_fallback
    assert abs(scalar_report.rent_exponent - array_report.rent_exponent) <= tolerance
    for scalar_gtl, array_gtl in zip(scalar_report.gtls, array_report.gtls):
        assert set(scalar_gtl.cells) == set(array_gtl.cells)
        assert scalar_gtl.size == array_gtl.size
        assert scalar_gtl.cut == array_gtl.cut
        assert scalar_gtl.seed == array_gtl.seed
        assert abs(scalar_gtl.score - array_gtl.score) <= tolerance
        assert abs(scalar_gtl.ngtl_score - array_gtl.ngtl_score) <= tolerance
        assert abs(scalar_gtl.gtl_sd_score - array_gtl.gtl_sd_score) <= tolerance


def _measure(netlist, config):
    scalar_seconds, scalar_report = _run_backend(netlist, config, "python")
    compiled_seconds, compiled_report = _run_backend(netlist, config, "numpy")
    _assert_reports_identical(scalar_report, compiled_report)
    return {
        "cells": netlist.num_cells,
        "nets": netlist.num_nets,
        "num_seeds": config.num_seeds,
        "lambda_skip": config.lambda_skip,
        "num_gtls": compiled_report.num_gtls,
        "gtl_sizes": [gtl.size for gtl in compiled_report.gtls],
        "scalar_s": round(scalar_seconds, 4),
        "compiled_s": round(compiled_seconds, 4),
        "speedup": round(scalar_seconds / max(compiled_seconds, 1e-9), 2),
    }


def _measure_grow(netlist, config):
    """Phase I alone: the finder's seed orderings, scalar grower vs C kernel."""
    seeds = [cell for cell, _ in plan_seed_jobs(netlist, config)]
    max_length = config.resolve_order_length(netlist.num_cells)
    kwargs = dict(lambda_skip=config.lambda_skip, exclude_fixed=config.exclude_fixed)

    start = time.perf_counter()
    scalar = []
    for seed in seeds:
        grower = LinearOrderingGrower(netlist, seed, **kwargs)
        scalar.append((grower.grow(max_length), grower.telemetry()["heap_pushes"]))
    scalar_seconds = time.perf_counter() - start

    start = time.perf_counter()
    compiled = [grow_ordering(netlist, seed, max_length, **kwargs) for seed in seeds]
    compiled_seconds = time.perf_counter() - start

    assert [
        (ordering.tolist(), telemetry["heap_pushes"])
        for ordering, telemetry, _ in compiled
    ] == scalar, "compiled and scalar orderings differ"
    return {
        "cells": netlist.num_cells,
        "orderings": len(seeds),
        "max_length": max_length,
        "lambda_skip": config.lambda_skip,
        "absorb_steps": sum(len(ordering) for ordering, _, _ in compiled),
        "heap_pushes": sum(t["heap_pushes"] for _, t, _ in compiled),
        "kernel": "compiled" if compiled_kernel() is not None else "scalar-fallback",
        "cpu_count": os.cpu_count(),
        "scalar_s": round(scalar_seconds, 4),
        "compiled_s": round(compiled_seconds, 4),
        "speedup": round(scalar_seconds / max(compiled_seconds, 1e-9), 2),
    }


def _measure_grow_extract(netlist, config):
    """Phase I + II per ordering: kernel-recorded curves vs. a re-scan."""
    seeds = [cell for cell, _ in plan_seed_jobs(netlist, config)]
    max_length = config.resolve_order_length(netlist.num_cells)
    kwargs = dict(lambda_skip=config.lambda_skip, exclude_fixed=config.exclude_fixed)

    def run(rescan):
        outcomes = []
        start = time.perf_counter()
        for seed in seeds:
            ordering, _, curves = grow_ordering(netlist, seed, max_length, **kwargs)
            outcomes.append(
                extract_candidate_and_rent(
                    netlist, ordering, config, seed=seed,
                    curves=None if rescan else curves,
                )
            )
        return time.perf_counter() - start, outcomes

    with forced_backend("numpy"):
        rescan_seconds, rescanned = run(rescan=True)
        kernel_seconds, from_kernel = run(rescan=False)
    assert repr(from_kernel) == repr(rescanned), "kernel curves changed Phase II"
    per_ordering = 1e3 / len(seeds)
    return {
        "cells": netlist.num_cells,
        "orderings": len(seeds),
        "max_length": max_length,
        "kernel": "compiled" if compiled_kernel() is not None else "scalar-fallback",
        "cpu_count": os.cpu_count(),
        "rescan_ms": round(rescan_seconds * per_ordering, 2),
        "kernel_curves_ms": round(kernel_seconds * per_ordering, 2),
        "speedup": round(rescan_seconds / max(kernel_seconds, 1e-9), 2),
    }


def _measure_tracing(netlist, config):
    """Traced vs. untraced array run on the same design, back to back.

    Returns the comparison row and the traced run's :class:`RunReport`.
    The traced report must be bit-identical to the untraced one — the
    obs layer observes, it never perturbs — and the traced run must stay
    within 5% wall-clock at full scale (sub-second smoke runs get a
    looser bound because fixed costs don't amortize).
    """
    # Each run gets its own copy of the design with the kernel tables
    # built, so both grow every ordering (the ordering memo is per netlist
    # object, and the earlier rows warmed it on ``netlist``).
    untraced_netlist, traced_netlist = (
        pickle.loads(pickle.dumps(netlist)) for _ in range(2)
    )
    for copy in (untraced_netlist, traced_netlist):
        KernelTables.for_netlist(copy)
    with forced_backend("numpy"):
        start = time.perf_counter()
        untraced_report = TangledLogicFinder(untraced_netlist, config).run()
        untraced_seconds = time.perf_counter() - start

        trace.enable()
        try:
            start = time.perf_counter()
            traced_report = TangledLogicFinder(traced_netlist, config).run()
            traced_seconds = time.perf_counter() - start
            run_report = RunReport.from_tracer()
        finally:
            trace.disable()

    _assert_reports_identical(untraced_report, traced_report)
    if SMOKE:
        assert traced_seconds <= untraced_seconds * 1.5 + 0.05
    else:
        assert traced_seconds <= untraced_seconds * 1.05
    phases = {
        name: round(row["total_s"], 4)
        for name, row in run_report.phase_totals().items()
        if name.startswith("finder.phase")
    }
    row = {
        "cells": netlist.num_cells,
        "untraced_s": round(untraced_seconds, 4),
        "traced_s": round(traced_seconds, 4),
        "overhead": round(traced_seconds / max(untraced_seconds, 1e-9), 4),
        "phases_s": phases,
        "counters": run_report.counters(),
    }
    return row, run_report


def test_finder_kernel_scalar_vs_compiled():
    small_netlist, _ = generate_industrial(SMALL_SPEC, seed=5)
    big_netlist, _ = generate_industrial(BIG_SPEC, seed=5)
    small_netlist.arrays  # build CSR views outside the timed regions
    big_netlist.arrays
    compiled_kernel()  # build or load the C kernel outside them too

    results = {
        "small": _measure(
            small_netlist, FinderConfig(num_seeds=NUM_SEEDS, seed=1)
        ),
        "industrial50k_exact": _measure(
            big_netlist, FinderConfig(num_seeds=NUM_SEEDS, seed=1, lambda_skip=0)
        ),
        "industrial50k_lambda20": _measure(
            big_netlist, FinderConfig(num_seeds=NUM_SEEDS, seed=1)
        ),
    }
    results["industrial50k_grow"] = _measure_grow(
        big_netlist, FinderConfig(num_seeds=NUM_SEEDS, seed=1)
    )
    results["industrial50k_grow_extract"] = _measure_grow_extract(
        big_netlist, FinderConfig(num_seeds=NUM_SEEDS, seed=1)
    )
    tracing_row, run_report = _measure_tracing(
        big_netlist, FinderConfig(num_seeds=NUM_SEEDS, seed=1)
    )
    results["industrial50k_tracing"] = tracing_row
    path = record(
        "finder_kernel", results, smoke=SMOKE, run_report=run_report.to_dict()
    )
    print(f"\nwrote {path}")
    for name, row in results.items():
        if "num_gtls" not in row:
            continue
        print(
            f"{name}: {row['cells']} cells, scalar {row['scalar_s']}s, "
            f"compiled {row['compiled_s']}s ({row['speedup']}x), "
            f"gtls {row['num_gtls']}"
        )
    grow = results["industrial50k_grow"]
    print(
        f"grow only: {grow['orderings']} orderings, scalar {grow['scalar_s']}s, "
        f"{grow['kernel']} {grow['compiled_s']}s ({grow['speedup']}x)"
    )
    extract = results["industrial50k_grow_extract"]
    print(
        f"grow + extract per ordering: re-scan {extract['rescan_ms']}ms, "
        f"kernel curves {extract['kernel_curves_ms']}ms ({extract['speedup']}x)"
    )
    print(
        f"tracing: untraced {tracing_row['untraced_s']}s, "
        f"traced {tracing_row['traced_s']}s "
        f"({tracing_row['overhead']}x), phases {tracing_row['phases_s']}"
    )

    if not SMOKE:
        # Acceptance: >= 50K cells and >= 5x over the scalar reference on
        # the exact-weight finder, with bit-identical reports (asserted
        # above for every row).
        exact = results["industrial50k_exact"]
        assert exact["cells"] >= 50_000
        assert exact["num_gtls"] >= 2  # dissolved ROM blocks are recovered
        assert exact["speedup"] >= 5.0
        # The compiled grow loop: >= 5x over the scalar grower.
        assert grow["cells"] >= 50_000
        assert grow["kernel"] == "compiled"
        assert grow["speedup"] >= 5.0
