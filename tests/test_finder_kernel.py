"""Parity of the array detection kernel against the scalar reference.

The contract (see :mod:`repro.netlist.backend`): both backends grow
bit-identical orderings, produce identical integer prefix curves and group
statistics, score within 1e-9 of each other, and detect the *same* GTL
cell sets — so detection artifacts and flow caches are shared across
backends.  On the numpy backend the compiled grow kernel and its scalar
fallback (:mod:`repro.finder.kernel`) give identical orderings, push
counts and reports; the loading tests cover the fallback when no kernel
can be built and concurrent first builds.
"""

import contextlib
import json
import math
import os
import pickle
import random
import shutil
import subprocess
import sys
import textwrap
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FinderError
from repro.finder import FinderConfig, find_tangled_logic
from repro.finder import candidate as candidate_module
from repro.finder import kernel
from repro.finder import refine as refine_module
from repro.finder.candidate import extract_candidate, scan_ordering
from repro.finder.finder import _process_seed
from repro.finder.kernel import KernelTables, compiled_kernel, grow_ordering
from repro.finder.ordering import LinearOrderingGrower, grow_linear_ordering
from repro.flow.flow import Flow
from repro.flow.stages import DetectStage
from repro.generators.random_gtl import planted_gtl_graph
from repro.metrics.gtl_score import ScoreContext
from repro.metrics.rent import (
    estimate_rent_exponent_from_curves,
    estimate_rent_exponent_from_prefixes,
)
from repro.netlist.backend import forced_backend
from repro.netlist.builder import NetlistBuilder
from repro.netlist.ops import (
    PrefixScanner,
    group_connected,
    group_stats,
    scan_ordering_curves,
)
from repro.service.codec import report_to_dict
from repro.service.fingerprint import FINGERPRINT_CACHE_KEY
from repro.service.store import ResultStore


def _on_both_backends(call):
    """``(numpy result, scalar result)`` of ``call()``."""
    with forced_backend("numpy"):
        array = call()
    with forced_backend("python"):
        scalar = call()
    return array, scalar


def _random_netlist(rng, max_cells=32, with_fixed=True, max_degree=8):
    builder = NetlistBuilder()
    num_cells = rng.randint(4, max_cells)
    cells = [
        builder.add_cell(
            f"c{i}", fixed=(with_fixed and i > 1 and rng.random() < 0.1)
        )
        for i in range(num_cells)
    ]
    for i in range(rng.randint(3, 3 * num_cells)):
        degree = rng.randint(2, min(max_degree, num_cells))
        builder.add_net(f"n{i}", rng.sample(cells, degree))
    return builder.build()


def _disconnected_netlist(rng):
    """Two random components and a few isolated cells: the frontier of any
    seed empties before the ordering covers the design."""
    builder = NetlistBuilder()
    sizes = [rng.randint(3, 12), rng.randint(3, 12)]
    for component, size in enumerate(sizes):
        cells = [
            builder.add_cell(f"k{component}_{i}", fixed=(i > 0 and rng.random() < 0.15))
            for i in range(size)
        ]
        for i in range(1, size):
            builder.add_net(f"t{component}_{i}", [cells[i - 1], cells[i]])
        for i in range(rng.randint(0, 2 * size)):
            builder.add_net(
                f"r{component}_{i}", rng.sample(cells, rng.randint(2, min(5, size)))
            )
    for i in range(rng.randint(1, 3)):
        builder.add_cell(f"iso{i}")
    return builder.build()


#: A compiler the loading tests can run (``$CC`` if set, else ``cc``).
_COMPILER = shutil.which((os.environ.get("CC") or "cc").split()[0])
needs_compiler = pytest.mark.skipif(_COMPILER is None, reason="no C compiler")


def _no_kernel():
    """Run the numpy backend without the compiled kernel inside the block
    (this process only), so the kernel can be compared with its fallback."""
    return mock.patch.multiple(kernel._KernelState, loaded=True, library=None)


def _fresh_copy(netlist):
    """An equal netlist that shares no derived state (nor memo entries)."""
    return pickle.loads(pickle.dumps(netlist))


def _grow_two_ways(netlist, seed, max_length, lambda_skip, exclude_fixed):
    """(ordering, telemetry) of the numpy-backend entry point and of the
    scalar reference."""
    ordering, telemetry, _ = grow_ordering(
        netlist, seed, max_length, lambda_skip=lambda_skip, exclude_fixed=exclude_fixed
    )
    grower = LinearOrderingGrower(
        netlist, seed, lambda_skip=lambda_skip, exclude_fixed=exclude_fixed
    )
    return (ordering.tolist(), telemetry), (grower.grow(max_length), grower.telemetry())


def _assert_two_way_parity(netlist, seed, max_length, lambda_skip, exclude_fixed):
    (compiled, compiled_tel), (scalar, scalar_tel) = _grow_two_ways(
        netlist, seed, max_length, lambda_skip, exclude_fixed
    )
    assert compiled == scalar
    assert compiled_tel == scalar_tel


# ---------------------------------------------------------------- growers
def test_bad_seeds_raise_on_the_numpy_path(mixed_netlist):
    with forced_backend("numpy"):
        for bad in (99, -1, 3):  # out of range, negative, the pad
            with pytest.raises(FinderError):
                grow_linear_ordering(mixed_netlist, bad, 4)
        ordering = grow_linear_ordering(mixed_netlist, 3, 4, exclude_fixed=False)
    assert ordering[0] == 3


def test_kernel_tables_cached_per_netlist(mixed_netlist):
    assert KernelTables.for_netlist(mixed_netlist) is KernelTables.for_netlist(
        mixed_netlist
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from(("random", "disconnected", "wide")))
def test_property_orderings_bit_identical(seed, shape):
    """The numpy entry point (the C kernel when it loads) and the scalar
    reference agree on orderings and heap pushes.

    ``lambda_skip`` 0 never skips a re-touched net and 1 skips every one;
    3 mixes skipped and updated re-touches on the small-net designs, and the
    wide-net designs (nets of up to 40 pins) make 20 skip some as well.
    """
    rng = random.Random(seed)
    netlist = _shaped_netlist(rng, shape)
    n = netlist.num_cells
    start = rng.choice(netlist.movable_cells())
    for exclude_fixed in (True, False):
        for lambda_skip in (0, 1, 3, 20):
            for max_length in (0, 1, n, n + 7):
                _assert_two_way_parity(
                    netlist, start, max_length, lambda_skip, exclude_fixed
                )
            array, scalar = _on_both_backends(
                lambda: grow_linear_ordering(
                    netlist, start, n, lambda_skip, exclude_fixed
                )
            )
            assert array == scalar


def _shaped_netlist(rng, shape):
    if shape == "disconnected":
        return _disconnected_netlist(rng)
    if shape == "wide":
        return _random_netlist(rng, max_cells=60, max_degree=40)
    return _random_netlist(rng)


def _raw_grows(netlist, start, cap, lambda_skip, exclude_fixed):
    """``{path: (ordering list, curves or None)}`` straight from each grower,
    never through :func:`grow_with_curves` and its memo: the C kernel when
    it loads, the numpy backend's no-compiler fallback (grower plus curve
    scan), and the scalar reference."""
    paths = [("fallback", _no_kernel)]
    if compiled_kernel() is not None:
        paths.append(("kernel", contextlib.nullcontext))
    grows = {}
    for path, context in paths:
        with context():
            ordering, _, curves = grow_ordering(
                netlist, start, cap, lambda_skip=lambda_skip, exclude_fixed=exclude_fixed
            )
        grows[path] = (ordering.tolist(), curves)
    grower = LinearOrderingGrower(
        netlist, start, lambda_skip=lambda_skip, exclude_fixed=exclude_fixed
    )
    grows["scalar"] = (grower.grow(cap), None)
    return grows


def _curve_lists(curves, length):
    """The first ``length`` entries of each curve array, as lists."""
    arrays = (curves.sizes, curves.cuts, curves.pins, curves.internal)
    assert all(array.dtype == np.int64 for array in arrays)
    return [array[:length].tolist() for array in arrays]


def _assert_capped_orderings_are_prefixes(
    netlist, start, caps, lambda_skip, exclude_fixed
):
    """On every grower, the ordering grown with cap ``L`` is the first
    ``min(L, len)`` cells of the uncapped one, and its curves are the first
    ``min(L, len)`` entries of the uncapped curves."""
    full = _raw_grows(netlist, start, netlist.num_cells, lambda_skip, exclude_fixed)
    for cap in caps:
        capped = _raw_grows(netlist, start, cap, lambda_skip, exclude_fixed)
        for path, (ordering, curves) in capped.items():
            full_ordering, full_curves = full[path]
            assert ordering == full_ordering[:cap], (path, cap)
            if curves is not None:
                assert _curve_lists(curves, len(ordering)) == _curve_lists(
                    full_curves, len(ordering)
                ), (path, cap)


def _assert_complete_orderings_are_final(netlist, start, lambda_skip, exclude_fixed):
    """On every grower, an ordering that stops before its cap (a *complete*
    one: its frontier emptied) equals, curves included, the ordering grown
    with every longer cap."""
    caps = range(1, netlist.num_cells + 4)
    grows = [_raw_grows(netlist, start, cap, lambda_skip, exclude_fixed) for cap in caps]
    complete = 0
    for index, cap in enumerate(caps):
        for path, (ordering, curves) in grows[index].items():
            if len(ordering) == cap:
                continue  # stopped by its cap
            complete += 1
            for longer in grows[index + 1 :]:
                other, other_curves = longer[path]
                assert other == ordering, (path, cap)
                if curves is not None:
                    assert _curve_lists(other_curves, len(other)) == _curve_lists(
                        curves, len(ordering)
                    ), (path, cap)
    assert complete  # the cap n + 3 always outlives the frontier


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from(("random", "disconnected", "wide")))
def test_property_capped_orderings_are_prefixes(seed, shape):
    """A cap only stops growth, so a shorter-capped ordering and its prefix
    curves are always a prefix of a longer-capped one's (a disconnected
    design's ordering may end before either cap), and an ordering that
    stopped before its cap is final.  The ordering memo of
    :func:`~repro.finder.ordering.grow_with_curves` answers short requests
    from long entries on these two facts."""
    rng = random.Random(seed)
    netlist = _shaped_netlist(rng, shape)
    n = netlist.num_cells
    start = rng.choice(netlist.movable_cells())
    caps = sorted({1, 2, rng.randint(1, n), rng.randint(1, n), n + 3})
    for exclude_fixed in (True, False):
        for lambda_skip in (0, 1, 3, 20):
            _assert_capped_orderings_are_prefixes(
                netlist, start, caps, lambda_skip, exclude_fixed
            )
    # Two components with fixed pads and isolated cells: each seed's
    # frontier empties inside its own component.
    netlist = _disconnected_netlist(rng)
    for start in (0, netlist.num_cells - 1):
        for exclude_fixed in (True, False):
            for lambda_skip in (0, 1, 20):
                _assert_complete_orderings_are_final(
                    netlist, start, lambda_skip, exclude_fixed
                )


# ---------------------------------------------------------------- C kernel
def _large_frontier_design():
    """Big enough for the frontier to hold thousands of cells at once."""
    return planted_gtl_graph(4000, [200], seed=7)


def test_capped_orderings_are_prefixes_through_a_large_frontier():
    """The prefix property holds when the kernel's heap holds thousands of
    frontier cells, and its telemetry is the scalar grower's."""
    netlist, truth = _large_frontier_design()
    start = sorted(truth[0])[0]
    caps = (150, 1200, 3500)
    for lambda_skip in (0, 20):
        _assert_capped_orderings_are_prefixes(netlist, start, caps, lambda_skip, True)
        _, telemetry, _ = grow_ordering(
            netlist, start, caps[-1], lambda_skip=lambda_skip
        )
        grower = LinearOrderingGrower(netlist, start, lambda_skip=lambda_skip)
        grower.grow(caps[-1])
        assert telemetry == grower.telemetry()


def test_compiled_parity_through_a_large_frontier():
    netlist, truth = _large_frontier_design()
    n = netlist.num_cells
    for start in (0, sorted(truth[0])[0], n // 2):
        for lambda_skip in (0, 20):
            _assert_two_way_parity(netlist, start, n, lambda_skip, True)


@needs_compiler
def test_counter_overflow_raises_finder_error(monkeypatch):
    """An update counter that outgrows its heap key field stops the grow
    with a typed error instead of popping in a wrong order."""
    netlist, truth = _large_frontier_design()
    start = sorted(truth[0])[0]
    tables = KernelTables.for_netlist(netlist)
    assert tables.counter_bits > 40  # the real field never fills up
    assert grow_ordering(netlist, start, 200)[0].size == 200
    monkeypatch.setattr(tables, "counter_bits", 4)
    with pytest.raises(FinderError, match="4-bit heap key field"):
        grow_ordering(netlist, start, 200)


def test_fixed_pad_seed_and_frontier_end_on_compiled_path(mixed_netlist):
    # exclude_fixed=False may start at the pad; exclude_fixed=True never
    # absorbs it, so the ordering ends when the frontier empties.
    assert grow_ordering(mixed_netlist, 3, 10, exclude_fixed=False)[0].tolist() == [
        3, 0, 1, 2
    ]
    assert grow_ordering(mixed_netlist, 0, 10)[0].tolist() == [0, 1, 2]


@needs_compiler
def test_compiler_present_means_the_kernel_loads(mixed_netlist):
    library = compiled_kernel()
    assert library is not None
    assert os.path.dirname(library._name) == kernel.kernel_cache_dir()


def test_kernel_tables_hold_contiguous_int64_arrays(mixed_netlist):
    tables = KernelTables.for_netlist(mixed_netlist)
    for exclude_fixed in (True, False):
        arrays = (
            tables.cell_ptr,
            tables.cell_nets,
            tables.net_degrees,
            tables.degree2,
            *tables.update_csr(exclude_fixed),
        )
        for array in arrays:
            assert array.dtype == "int64" and array.flags["C_CONTIGUOUS"]
    assert tables.degree2.tolist() == [2, 2, 2, 1]


def test_kernel_allocation_failure_raises_finder_error(mixed_netlist, monkeypatch):
    class _FailingLibrary:
        @staticmethod
        def repro_grow_ordering(*args):
            return -1

    monkeypatch.setattr(kernel._KernelState, "loaded", True)
    monkeypatch.setattr(kernel._KernelState, "library", _FailingLibrary())
    with pytest.raises(FinderError, match="could not allocate"):
        grow_ordering(mixed_netlist, 0, 4)


def test_library_name_keys_on_compiler_and_machine(monkeypatch):
    monkeypatch.delenv("CC", raising=False)
    default = kernel.kernel_library_path()
    monkeypatch.setenv("CC", "/nonexistent/cc")
    assert kernel.kernel_library_path() != default
    monkeypatch.delenv("CC")
    monkeypatch.setattr(kernel.platform, "machine", lambda: "other-arch")
    assert kernel.kernel_library_path() != default


@pytest.mark.parametrize("writable", ["directory", "library"])
def test_group_writable_cache_is_never_loaded(tmp_path, monkeypatch, writable):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(kernel._KernelState, "loaded", False)
    monkeypatch.setattr(kernel._KernelState, "library", None)
    monkeypatch.setattr(kernel, "logger", mock.Mock())
    path = kernel.kernel_library_path()
    os.makedirs(os.path.dirname(path), mode=0o700)
    with open(path, "wb") as handle:
        handle.write(b"planted by another user")
    os.chmod(path, 0o755)
    os.chmod(os.path.dirname(path) if writable == "directory" else path, 0o777)
    assert compiled_kernel() is None
    assert compiled_kernel() is None  # decided once per process
    (call,) = kernel.logger.warning.call_args_list
    assert "writable by group/others" in str(call.args[1])


# ---------------------------------------------------------------- loading
_CHILD = textwrap.dedent(
    """
    import json, sys
    from repro.finder.kernel import compiled_kernel, grow_ordering
    from repro.finder import FinderConfig, find_tangled_logic
    from repro.generators.random_gtl import planted_gtl_graph
    from repro.service.codec import report_to_dict

    def grown(seed, lambda_skip):
        ordering, telemetry, curves = grow_ordering(
            netlist, seed, 300, lambda_skip=lambda_skip)
        return [ordering.tolist(), telemetry, curves.cuts.tolist(),
                curves.pins.tolist(), curves.internal.tolist()]

    netlist, _ = planted_gtl_graph(600, [80], seed=3)
    orderings = [grown(s, l) for s in (0, 17) for l in (0, 20)]
    report = report_to_dict(find_tangled_logic(
        netlist, FinderConfig(num_seeds=4, seed=7, min_gtl_size=20)
    ))
    report.pop("runtime_seconds")
    library = compiled_kernel()
    print(json.dumps({"orderings": orderings, "report": report,
                      "library": library and library._name}))
    """
)


def _run_child(env_overrides):
    env = dict(os.environ)
    env.pop("REPRO_SCALAR_BACKEND", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + [p for p in [env.get("PYTHONPATH")] if p]
    )
    env.update(env_overrides)
    return subprocess.Popen(
        [sys.executable, "-c", _CHILD],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _finish(process):
    out, err = process.communicate(timeout=300)
    assert process.returncode == 0, err
    return json.loads(out), err


def _expected_child_output():
    """The child's output computed in this process, on the compiled kernel
    whenever a compiler is present: a child without a kernel must match it
    bit for bit."""
    netlist, _ = planted_gtl_graph(600, [80], seed=3)
    orderings = []
    for s in (0, 17):
        for l in (0, 20):
            ordering, telemetry, curves = grow_ordering(netlist, s, 300, lambda_skip=l)
            orderings.append([
                ordering.tolist(),
                telemetry,
                curves.cuts.tolist(),
                curves.pins.tolist(),
                curves.internal.tolist(),
            ])
    with forced_backend("numpy"):
        report = report_to_dict(
            find_tangled_logic(
                netlist, FinderConfig(num_seeds=4, seed=7, min_gtl_size=20)
            )
        )
    report.pop("runtime_seconds")
    return json.loads(json.dumps({"orderings": orderings, "report": report}))


@pytest.mark.parametrize("failure", ["missing compiler", "failing compiler", "cache is a file"])
def test_no_kernel_falls_back_with_one_warning(tmp_path, failure):
    env = {"XDG_CACHE_HOME": str(tmp_path / "cache"), "REPRO_LOG_LEVEL": "WARNING"}
    if failure == "missing compiler":
        env["CC"] = str(tmp_path / "no-such-compiler")
    elif failure == "failing compiler":
        env["CC"] = "false"
    else:
        (tmp_path / "cache").write_text("not a directory")
    result, err = _finish(_run_child(env))
    assert result.pop("library") is None
    assert (compiled_kernel() is None) == (_COMPILER is None)
    assert result == _expected_child_output()
    warnings = [line for line in err.splitlines() if "kernel unavailable" in line]
    assert len(warnings) == 1, err
    assert "Traceback" not in err


@needs_compiler
def test_racing_first_use_loads_one_library(tmp_path):
    env = {"XDG_CACHE_HOME": str(tmp_path)}
    children = [_run_child(env) for _ in range(2)]
    results = [_finish(child)[0] for child in children]
    directory = tmp_path / "repro" / "kernels"
    built = sorted(os.listdir(directory))
    assert len(built) == 1 and built[0].endswith(".so")  # no temp files left
    assert results[0]["library"] == results[1]["library"] == str(directory / built[0])
    expected = _expected_child_output()
    for result in results:
        result.pop("library")
        assert result == expected


# ---------------------------------------------------------------- curves
def _curve_netlist(rng):
    """Two components (the frontier empties before it covers the design),
    fixed pads, explicit pin counts, degree-1 nets and isolated cells."""
    builder = NetlistBuilder()
    num_cells = rng.randint(4, 40)
    cells = [
        builder.add_cell(f"c{i}", fixed=(i > 0 and rng.random() < 0.15))
        for i in range(num_cells)
    ]
    degree = dict.fromkeys(cells, 0)
    split = rng.randint(1, num_cells - 1)
    for part in (cells[:split], cells[split:]):
        for _ in range(rng.randint(0, 3 * len(part))):
            members = rng.sample(part, rng.randint(1, min(len(part), 10)))
            builder.add_net(None, members)
            for cell in members:
                degree[cell] += 1
    for cell in cells:
        if rng.random() < 0.2:
            builder.set_pin_count(cell, degree[cell] + rng.randint(0, 5))
    return builder.build()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_property_kernel_curves_equal_the_scan(seed):
    """The curves the grow kernel records while it absorbs cells equal a
    :func:`scan_ordering_curves` pass over the ordering it grew."""
    rng = random.Random(seed)
    netlist = _curve_netlist(rng)
    n = netlist.num_cells
    start = rng.choice(netlist.movable_cells())
    for exclude_fixed in (True, False):
        for lambda_skip in (0, 1, 3, 20):
            for max_length in (1, rng.randint(1, n), n):
                ordering, _, curves = grow_ordering(
                    netlist,
                    start,
                    max_length,
                    lambda_skip=lambda_skip,
                    exclude_fixed=exclude_fixed,
                )
                expected = scan_ordering_curves(netlist, ordering)
                for field in ("sizes", "cuts", "pins", "internal"):
                    assert getattr(curves, field).tolist() == getattr(
                        expected, field
                    ).tolist(), (field, exclude_fixed, lambda_skip, max_length)


def test_kernel_curves_cover_single_pin_nets_and_pads():
    builder = NetlistBuilder()
    a = builder.add_cell("a", pin_count=5)
    b, c = builder.add_cell("b"), builder.add_cell("c")
    pad = builder.add_cell("pad", fixed=True)
    builder.add_net("solo", [a])
    builder.add_net("ab", [a, b])
    builder.add_net("bcp", [b, c, pad])
    netlist = builder.build()
    ordering, _, curves = grow_ordering(netlist, a, 10)
    assert ordering.tolist() == [a, b, c]  # the frontier empties at the pad
    assert curves.cuts.tolist() == [1, 1, 1]
    assert curves.internal.tolist() == [1, 2, 2]
    assert curves.pins.tolist() == [5, 7, 8]
    ordering, _, curves = grow_ordering(netlist, a, 10, exclude_fixed=False)
    assert ordering.tolist() == [a, b, c, pad]
    assert curves.cuts.tolist() == [1, 1, 1, 0]
    assert curves.internal.tolist() == [1, 2, 2, 3]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_property_prefix_curves_match_scanner_exactly(seed):
    rng = random.Random(seed)
    netlist = _random_netlist(rng, with_fixed=False)
    with forced_backend("python"):
        ordering = grow_linear_ordering(netlist, 0, netlist.num_cells)
    scanner = PrefixScanner(netlist)
    curves = scan_ordering_curves(netlist, ordering)
    for index, cell in enumerate(ordering):
        scanner.add(cell)
        assert curves.stats_at(index) == scanner.stats()
    array, scalar = _on_both_backends(lambda: scan_ordering(netlist, ordering))
    assert array == scalar


def test_scan_ordering_rejects_duplicates_in_both_backends(triangle):
    from repro.errors import NetlistError

    for backend in ("python", "numpy"):
        with forced_backend(backend), pytest.raises(NetlistError):
            scan_ordering(triangle, [0, 0, 1])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_property_score_curves_and_rent_within_1e9(seed):
    rng = random.Random(seed)
    netlist = _random_netlist(rng, with_fixed=False)
    with forced_backend("python"):
        ordering = grow_linear_ordering(netlist, 0, netlist.num_cells)
        prefix_stats = scan_ordering(netlist, ordering)
    curves = scan_ordering_curves(netlist, ordering)
    scalar_rent = estimate_rent_exponent_from_prefixes(prefix_stats, min_size=3)
    array_rent = estimate_rent_exponent_from_curves(curves, min_size=3)
    assert abs(array_rent - scalar_rent) <= 1e-9
    for metric in ("gtl_s", "ngtl_s", "gtl_sd"):
        scalar_context = ScoreContext.for_netlist(netlist, scalar_rent, metric=metric)
        scalar_scores = [scalar_context.score(stats) for stats in prefix_stats]
        array_context = ScoreContext.for_netlist(netlist, array_rent, metric=metric)
        array_scores = array_context.score_curves(curves).tolist()
        assert len(array_scores) == len(scalar_scores)
        assert max(
            abs(a - b) for a, b in zip(array_scores, scalar_scores)
        ) <= 1e-9


# ---------------------------------------------------------------- groups
@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_property_group_stats_and_connectivity_parity(seed):
    rng = random.Random(seed)
    netlist = _random_netlist(rng, with_fixed=False)
    cells = list(range(netlist.num_cells))
    for _ in range(6):
        group = set(rng.sample(cells, rng.randint(1, len(cells))))
        array, scalar = _on_both_backends(lambda: group_stats(netlist, group))
        assert array == scalar
        array, scalar = _on_both_backends(lambda: group_connected(netlist, group))
        assert array == scalar
    assert _on_both_backends(lambda: group_connected(netlist, [])) == (False, False)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(0, 6))
def test_property_signature_pass_picks_the_reference_member(seed, refine_count):
    """The numpy backend's signature pass returns the cells, score and
    :class:`GroupStats` the set-based family loop returns, with duplicate,
    empty, undersized and disconnected members in the family."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        netlist = _disconnected_netlist(rng)
    else:
        netlist = _random_netlist(rng, with_fixed=False)
    cells = list(range(netlist.num_cells))
    sets = [frozenset(rng.sample(cells, rng.randint(1, len(cells))))]
    for _ in range(refine_count):
        roll = rng.random()
        outside = [c for c in cells if c not in sets[0]]
        if roll < 0.2:
            sets.append(rng.choice(sets))  # duplicate members
        elif roll < 0.4 and outside:
            # disjoint from the candidate: an empty intersection
            sets.append(frozenset(rng.sample(outside, rng.randint(1, len(outside)))))
        else:
            sets.append(frozenset(rng.sample(cells, rng.randint(1, len(cells)))))
    min_size = rng.randint(2, max(2, len(cells) // 2))
    for metric in ("gtl_s", "ngtl_s", "gtl_sd"):
        rent = rng.uniform(0.3, 0.9)
        context = ScoreContext.for_netlist(netlist, rent, metric=metric)
        with forced_backend("numpy"):
            array = refine_module._best_member_signatures(
                netlist, sets, context, min_size
            )
        with forced_backend("python"):
            scalar = refine_module._best_member_sets(netlist, sets, context, min_size)
        assert array == scalar


def test_signature_pass_skips_a_better_disconnected_member():
    """Two cliques with no net between them: the best-scoring members glue
    them together, so both passes fall through to the connected clique
    that ties with a disconnected member on score and comes first."""
    builder = NetlistBuilder()
    cells = builder.add_cells(11)
    for group in (cells[0:4], cells[4:8]):
        for i, x in enumerate(group):
            for y in group[i + 1:]:
                builder.add_net(None, [x, y])
    for pair in ((0, 8), (8, 9), (5, 10)):
        builder.add_net(None, pair)
    netlist = builder.build()
    sets = [
        frozenset({0, 1, 2, 3, 4, 8}),
        frozenset(range(8)),  # both cliques: scores 0.25, disconnected
        frozenset(range(4)),  # one clique: scores 0.25, connected
    ]
    context = ScoreContext.for_netlist(netlist, 1.0, metric="gtl_s")
    family = refine_module.genetic_family(sets)
    union = frozenset(range(9))
    assert union in family and context.score(group_stats(netlist, union)) < 0.25
    assert not group_connected(netlist, union)
    with forced_backend("numpy"):
        array = refine_module._best_member_signatures(netlist, sets, context, 4)
    with forced_backend("python"):
        scalar = refine_module._best_member_sets(netlist, sets, context, 4)
    assert array == scalar
    assert array[0] == frozenset(range(4)) and array[2] == 0.25


# ---------------------------------------------------------------- pipeline
@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_property_finder_reports_identical_on_planted(seed):
    rng = random.Random(seed)
    netlist, _ = planted_gtl_graph(
        rng.randint(400, 900), [rng.randint(60, 120)], seed=rng.randrange(1000)
    )
    config = FinderConfig(
        num_seeds=6,
        seed=rng.randrange(1000),
        min_gtl_size=20,
        lambda_skip=rng.choice([0, 1, 20]),
    )

    with forced_backend("python"):
        scalar_report = find_tangled_logic(netlist, config)
    with forced_backend("numpy"):
        array_report = find_tangled_logic(netlist, config)
        with _no_kernel():
            # A fresh copy: on ``netlist`` the ordering memo would answer
            # every grow with the kernel's orderings.
            fallback_report = find_tangled_logic(_fresh_copy(netlist), config)
    # Compiled kernel vs scalar fallback: the whole report is identical.
    assert _comparable(array_report) == _comparable(fallback_report)
    assert [set(g.cells) for g in scalar_report.gtls] == [
        set(g.cells) for g in array_report.gtls
    ]
    assert abs(scalar_report.rent_exponent - array_report.rent_exponent) <= 1e-9
    for scalar_gtl, array_gtl in zip(scalar_report.gtls, array_report.gtls):
        assert abs(scalar_gtl.score - array_gtl.score) <= 1e-9
        assert scalar_gtl.cut == array_gtl.cut
        assert scalar_gtl.seed == array_gtl.seed


def _comparable(report):
    payload = report_to_dict(report)
    payload.pop("runtime_seconds")
    return payload


def test_extract_candidate_parity_includes_stats(small_planted):
    netlist, truth = small_planted
    seed = sorted(truth[0])[0]
    with forced_backend("python"):
        ordering = grow_linear_ordering(netlist, seed, 400)
    config = FinderConfig(num_seeds=1, min_gtl_size=20)
    array, scalar = _on_both_backends(
        lambda: extract_candidate(netlist, ordering, config)
    )
    assert (scalar is None) == (array is None)
    if scalar is not None:
        assert array.cells == scalar.cells
        assert array.stats == scalar.stats
        assert abs(array.score - scalar.score) <= 1e-9


@pytest.mark.parametrize("backend", ["numpy", "python", "fallback"])
@pytest.mark.parametrize(
    "overrides",
    [
        {},  # a flat curve: no clear minimum, a usable Rent estimate
        {"rent_min_prefix": 10_000},  # no usable prefix: NaN
        {"max_order_length": 20},  # shorter than min_gtl_size
    ],
    ids=["flat-curve", "no-usable-prefix", "short-ordering"],
)
def test_candidate_less_seed_scans_its_ordering_once(
    small_planted, monkeypatch, backend, overrides
):
    """A candidate-less seed's prefix statistics are computed exactly once,
    and the seed still reports the ordering's Rent estimate from that
    backend's estimator (NaN without a usable prefix).

    With the compiled kernel the curves come out of the grow loop, so no
    curve scan runs at all; the numpy backend without a kernel
    (``fallback``) scans the ordering once; the scalar backend feeds it
    once through a :class:`PrefixScanner`.
    """
    netlist, truth = small_planted
    outside = next(c for c in range(netlist.num_cells) if c not in truth[0])
    config = FinderConfig(
        **{"max_order_length": 400, "min_gtl_size": 30, **overrides}
    )
    curve_scans, added = [], []
    real_scan = scan_ordering_curves
    real_add = PrefixScanner.add

    def counting_scan(netlist, ordering):
        curve_scans.append(len(ordering))
        return real_scan(netlist, ordering)

    def counting_add(scanner, cell):
        added.append(cell)
        real_add(scanner, cell)

    with forced_backend("python" if backend == "python" else "numpy"), (
        _no_kernel() if backend == "fallback" else contextlib.nullcontext()
    ):
        ordering = grow_linear_ordering(
            netlist, outside, config.resolve_order_length(netlist.num_cells)
        )
        if backend == "python":
            expected = estimate_rent_exponent_from_prefixes(
                scan_ordering(netlist, ordering),
                min_size=config.rent_min_prefix,
                fallback=float("nan"),
            )
        else:
            expected = estimate_rent_exponent_from_curves(
                scan_ordering_curves(netlist, ordering),
                min_size=config.rent_min_prefix,
                fallback=float("nan"),
            )
        monkeypatch.setattr(candidate_module, "scan_ordering_curves", counting_scan)
        monkeypatch.setattr(kernel, "scan_ordering_curves", counting_scan)
        monkeypatch.setattr(PrefixScanner, "add", counting_add)
        # A copy no earlier grow touched, so the ordering memo is cold and
        # the seed grows (and, on the fallback, scans) exactly once.
        candidate, rent, orderings, footprint = _process_seed(
            _fresh_copy(netlist), config, outside, 0
        )
        kernel_loaded = compiled_kernel() is not None

    assert candidate is None and orderings == 1
    assert footprint.tolist() == sorted(ordering)
    if backend == "python":
        assert (curve_scans, added) == ([], ordering)
    elif backend == "numpy" and kernel_loaded:
        assert (curve_scans, added) == ([], [])
    else:
        assert (curve_scans, added) == ([len(ordering)], [])
    if "rent_min_prefix" in overrides:
        assert math.isnan(rent) and math.isnan(expected)
    else:
        assert rent == expected and math.isfinite(rent)
    if "max_order_length" in overrides:
        assert len(ordering) < config.min_gtl_size


# ---------------------------------------------------------------- caching
def test_score_context_memoized_per_netlist(mixed_netlist):
    first = ScoreContext.for_netlist(mixed_netlist, 0.6, metric="gtl_sd")
    again = ScoreContext.for_netlist(mixed_netlist, 0.6, metric="gtl_sd")
    other_metric = ScoreContext.for_netlist(mixed_netlist, 0.6, metric="ngtl_s")
    other_rent = ScoreContext.for_netlist(mixed_netlist, 0.7, metric="gtl_sd")
    assert again is first
    assert other_metric is not first and other_rent is not first


def test_derived_cache_not_pickled(mixed_netlist):
    ScoreContext.for_netlist(mixed_netlist, 0.6)
    KernelTables.for_netlist(mixed_netlist)
    clone = pickle.loads(pickle.dumps(mixed_netlist))
    # Only the fingerprint memo, read from the pack header, comes along.
    assert set(clone.derived_cache) == {FINGERPRINT_CACHE_KEY}
    assert not any(
        isinstance(value, (ScoreContext, KernelTables))
        for value in clone.derived_cache.values()
    )


# ---------------------------------------------------------------- flow
def test_detect_stage_cache_is_shared_across_backends(tmp_path, monkeypatch):
    netlist, _ = planted_gtl_graph(600, [80], seed=3)
    config = FinderConfig(num_seeds=4, seed=7, min_gtl_size=20)

    monkeypatch.setenv("REPRO_SCALAR_BACKEND", "0")
    with ResultStore(str(tmp_path)) as store:
        computed = Flow([DetectStage(config)], name="detect").run(
            netlist, store=store
        )
    assert not computed["detect"].cached
    assert computed["detect"].metadata["kernel_backend"] == "numpy"

    # Same design + config under the scalar backend: identical fingerprint,
    # served from the array-computed cache row, identical artifact.
    monkeypatch.setenv("REPRO_SCALAR_BACKEND", "1")
    with ResultStore(str(tmp_path)) as store:
        cached = Flow([DetectStage(config)], name="detect").run(
            netlist, store=store
        )
    assert cached["detect"].cached
    assert cached["detect"].fingerprint == computed["detect"].fingerprint
    assert cached["detect"].metadata["kernel_backend"] == "python"
    first, second = computed.artifact("detect"), cached.artifact("detect")
    assert [g.cells for g in first.gtls] == [g.cells for g in second.gtls]
    assert first.rent_exponent == second.rent_exponent

    # And a scalar-computed run produces the same fingerprint from scratch.
    with ResultStore(str(tmp_path / "fresh")) as store:
        recomputed = Flow([DetectStage(config)], name="detect").run(
            netlist, store=store
        )
    assert not recomputed["detect"].cached
    assert recomputed["detect"].fingerprint == computed["detect"].fingerprint


# ---------------------------------------------------------------- pool
def test_pool_ships_prebuilt_arrays_once(small_planted):
    """The seed threads share the netlist's CSR view and kernel tables:
    built once, never copied, and repeat runs reproduce the serial
    outcomes."""
    from repro.service.pool import WorkerPool

    netlist, _ = small_planted
    arrays = netlist.arrays  # the CSR view the threads must share
    config = FinderConfig(num_seeds=4, seed=11, min_gtl_size=20)
    jobs = [(cell, 1000 + cell) for cell in netlist.movable_cells()[:4]]
    serial = WorkerPool(1).run_seed_jobs(netlist, config, jobs)
    tables = netlist.derived_cache.get(kernel._TABLES_KEY)
    with WorkerPool(2) as pool:
        parallel_first = pool.run_seed_jobs(netlist, config, jobs)
        parallel_again = pool.run_seed_jobs(netlist, config, jobs)
    def same(outcomes, reference):
        # Footprints are arrays: compare them by value.
        return len(outcomes) == len(reference) and all(
            ours[:3] == theirs[:3] and np.array_equal(ours[3], theirs[3])
            for ours, theirs in zip(outcomes, reference)
        )

    assert same(parallel_first, serial)
    assert same(parallel_again, serial)
    assert netlist.arrays is arrays
    assert netlist.derived_cache.get(kernel._TABLES_KEY) is tables


def test_derived_builds_once_under_concurrent_first_use(small_planted):
    import threading
    import time
    from concurrent.futures import ThreadPoolExecutor

    rebuilt = pickle.loads(pickle.dumps(small_planted[0]))  # nothing derived
    builds = []
    barrier = threading.Barrier(2)

    def build():
        builds.append(threading.get_ident())
        time.sleep(0.05)  # widen the window a second builder would hit
        return object()

    def touch(_):
        barrier.wait(timeout=10)
        return (
            rebuilt.derived("probe", build),
            KernelTables.for_netlist(rebuilt),
            ScoreContext.for_netlist(rebuilt, 0.6),
        )

    with ThreadPoolExecutor(2) as threads:
        first, second = threads.map(touch, range(2))
    assert len(builds) == 1
    assert all(a is b for a, b in zip(first, second))
