"""The ordering memo under :func:`repro.finder.ordering.grow_with_curves`.

A grown ordering depends only on the netlist, the seed cell,
``lambda_skip``, ``exclude_fixed`` and its cap, so the memo answers short
requests from long (or complete) entries.  These tests pin that every
answer is bit-identical to growing, on every grower, that warm and cold
runs report the same, and that the memo stays inside its byte budget,
under threads, and inside one netlist object.
"""

import contextlib
import pickle
import threading
from unittest import mock

import numpy as np
import pytest

from repro.finder import FinderConfig, TangledLogicFinder
from repro.finder import kernel
from repro.finder.kernel import compiled_kernel, grow_ordering
from repro.finder.ordering import (
    LinearOrderingGrower,
    OrderingMemo,
    grow_with_curves,
)
from repro.generators.perturb import rewire_pins
from repro.generators.random_gtl import planted_gtl_graph
from repro.incremental import apply_delta
from repro.io.binfmt import load_packed, write_packed
from repro.netlist.backend import forced_backend, resolve_backend
from repro.netlist.builder import NetlistBuilder
from repro.obs import RunReport, trace
from repro.service import WorkerPool, report_to_dict

BACKENDS = ("numpy", "python")
GROWERS = ("kernel", "fallback", "python")


def _fresh(netlist):
    """An equal netlist that shares no derived state (so no memo entries)."""
    return pickle.loads(pickle.dumps(netlist))


@contextlib.contextmanager
def _on_grower(grower):
    """Select ``grower``: the compiled kernel, the numpy backend without it
    (the no-compiler fallback), or the scalar backend."""
    if grower == "kernel" and compiled_kernel() is None:
        pytest.skip("no compiled kernel")
    with forced_backend("python" if grower == "python" else "numpy"):
        if grower == "fallback":
            with mock.patch.multiple(kernel._KernelState, loaded=True, library=None):
                yield
        else:
            yield


def _traced(call):
    """``(call(), counters)`` with tracing on for the call."""
    trace.enable()
    try:
        result = call()
        counters = RunReport.from_tracer().counters()
    finally:
        trace.disable()
    return result, counters


def _raw(netlist, seed, cap, lambda_skip=20, exclude_fixed=True):
    """What the active grower grows, without the memo, in
    :func:`grow_with_curves`' output form."""
    if resolve_backend() == "numpy":
        ordering, _, curves = grow_ordering(
            netlist, seed, cap, lambda_skip=lambda_skip, exclude_fixed=exclude_fixed
        )
        return ordering, curves
    grower = LinearOrderingGrower(
        netlist, seed, lambda_skip=lambda_skip, exclude_fixed=exclude_fixed
    )
    return grower.grow(cap), None


def _assert_same(answer, expected):
    ordering, curves = answer
    want_ordering, want_curves = expected
    assert type(ordering) is type(want_ordering)
    assert list(ordering) == list(want_ordering)
    assert (curves is None) == (want_curves is None)
    if curves is not None:
        assert ordering.dtype == want_ordering.dtype == np.int64
        for name in ("sizes", "cuts", "pins", "internal"):
            mine, want = getattr(curves, name), getattr(want_curves, name)
            assert mine.dtype == want.dtype == np.int64, name
            assert mine.tolist() == want.tolist(), name


@pytest.fixture(scope="module")
def design():
    netlist, truth = planted_gtl_graph(1500, [120], seed=3)
    return netlist, sorted(truth[0])[0]


# ------------------------------------------------------------ hits and misses
@pytest.mark.parametrize("grower", GROWERS)
def test_short_request_after_long_hits(design, grower):
    base, seed = design
    netlist = _fresh(base)
    with _on_grower(grower):
        (long, short), counters = _traced(
            lambda: (
                grow_with_curves(netlist, seed, 400),
                grow_with_curves(netlist, seed, 150),
            )
        )
        _assert_same(long, _raw(base, seed, 400))
        _assert_same(short, _raw(base, seed, 150))
    assert counters["finder.orderings"] == 1
    assert counters["finder.ordering_reuses"] == 1
    assert counters["finder.absorb_steps"] == 400


@pytest.mark.parametrize("grower", GROWERS)
def test_long_request_after_short_grows_and_replaces(design, grower):
    base, seed = design
    netlist = _fresh(base)
    with _on_grower(grower):
        answers, counters = _traced(
            lambda: [grow_with_curves(netlist, seed, cap) for cap in (150, 400, 300)]
        )
        for cap, answer in zip((150, 400, 300), answers):
            _assert_same(answer, _raw(base, seed, cap))
    # 150 grows, 400 outgrows the capped entry and replaces it, 300 hits.
    assert counters["finder.orderings"] == 2
    assert counters["finder.ordering_reuses"] == 1
    assert counters["finder.absorb_steps"] == 150 + 400


def _two_components():
    """Cells 0-3 in one component, 4-5 in another, 6 a fixed pad on both."""
    builder = NetlistBuilder()
    cells = [builder.add_cell(f"c{i}", fixed=(i == 6)) for i in range(7)]
    for pair in ((0, 1), (1, 2), (2, 3), (4, 5)):
        builder.add_net(None, [cells[i] for i in pair])
    builder.add_net(None, [cells[3], cells[6]])
    builder.add_net(None, [cells[5], cells[6]])
    return builder.build()


@pytest.mark.parametrize("grower", GROWERS)
@pytest.mark.parametrize("lambda_skip", [0, 1, 20])
def test_complete_ordering_answers_every_longer_cap(grower, lambda_skip):
    base = _two_components()
    netlist = _fresh(base)
    with _on_grower(grower):
        answers, counters = _traced(
            lambda: [
                grow_with_curves(netlist, 0, cap, lambda_skip=lambda_skip)
                for cap in (10, 5, 100, 0)
            ]
        )
        for cap, answer in zip((10, 5, 100, 0), answers):
            _assert_same(answer, _raw(base, 0, cap, lambda_skip=lambda_skip))
    assert sorted(answers[0][0]) == [0, 1, 2, 3]  # the frontier emptied
    assert counters["finder.orderings"] == 1
    assert counters["finder.ordering_reuses"] == 3


def test_backends_and_parameters_key_separate_entries(design):
    base, seed = design
    netlist = _fresh(base)
    calls = [
        ("numpy", dict(lambda_skip=20, exclude_fixed=True)),
        ("python", dict(lambda_skip=20, exclude_fixed=True)),
        ("numpy", dict(lambda_skip=10, exclude_fixed=True)),
        ("numpy", dict(lambda_skip=20, exclude_fixed=False)),
    ]

    def grow_all():
        for backend, kwargs in calls:
            with forced_backend(backend):
                grow_with_curves(netlist, seed, 200, **kwargs)

    _, counters = _traced(grow_all)
    assert counters["finder.orderings"] == len(calls)
    assert "finder.ordering_reuses" not in counters
    _, counters = _traced(grow_all)
    assert counters["finder.ordering_reuses"] == len(calls)


# ------------------------------------------------------------ warm == cold
def _comparable(report):
    payload = report_to_dict(report)
    payload.pop("runtime_seconds")
    return payload


@pytest.mark.parametrize("source", ["builder", "pack"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_warm_sweep_reports_equal_cold_points(design, tmp_path, backend, source):
    """A ``lambda_skip`` x ``min_gtl_size`` sweep on one netlist through a
    2-thread pool reports exactly what each point reports on a freshly
    loaded copy, where the memo is cold."""
    base, _ = design
    if source == "pack":
        path = str(tmp_path / "design.nla")
        write_packed(base, path)

        def load():
            return load_packed(path)
    else:

        def load():
            return _fresh(base)

    points = [
        FinderConfig(num_seeds=6, seed=5, lambda_skip=skip, min_gtl_size=size)
        for skip in (20, 0)
        for size in (30, 60)
    ]
    netlist = load()
    with forced_backend(backend):
        with WorkerPool(2) as pool:
            warm, counters = _traced(
                lambda: [
                    TangledLogicFinder(netlist, config).run(pool=pool)
                    for config in points
                ]
            )
        cold = [TangledLogicFinder(load(), config).run() for config in points]
    assert counters["finder.ordering_reuses"] > 0
    assert [_comparable(r) for r in warm] == [_comparable(r) for r in cold]


def test_edited_netlist_never_sees_its_base_entries(design):
    base, seed = design
    netlist = _fresh(base)
    for backend in BACKENDS:
        with forced_backend(backend):
            edited, delta = rewire_pins(netlist, 0.05, rng=4, return_delta=True)
            spliced = apply_delta(netlist, delta)
            grow_with_curves(netlist, seed, 300)
            answers, counters = _traced(
                lambda: [grow_with_curves(spliced, seed, 300)]
            )
            _assert_same(answers[0], _raw(edited, seed, 300))
        assert counters["finder.orderings"] == 1, backend
        assert "finder.ordering_reuses" not in counters, backend


# ------------------------------------------------------------ threads
@pytest.mark.parametrize("grower", GROWERS)
def test_concurrent_first_use_gives_identical_answers(design, grower):
    base, seed = design
    netlist = _fresh(base)
    barrier = threading.Barrier(2)
    answers = [None, None]

    def grow(slot, cap):
        barrier.wait()
        answers[slot] = grow_with_curves(netlist, seed, cap)

    with _on_grower(grower):
        for caps in ((500, 500), (200, 500)):
            netlist = _fresh(base)
            threads = [
                threading.Thread(target=grow, args=(slot, cap))
                for slot, cap in enumerate(caps)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for cap, answer in zip(caps, answers):
                _assert_same(answer, _raw(base, seed, cap))
            # Whichever thread stored last, the longer ordering is kept.
            _, counters = _traced(lambda: grow_with_curves(netlist, seed, 500))
            assert counters["finder.ordering_reuses"] == 1


# ------------------------------------------------------------ byte budget
def _table(cells, rows=3):
    return np.zeros((rows, cells), dtype=np.int32)


def test_budget_evicts_least_recently_used_and_is_never_exceeded():
    memo = OrderingMemo(budget_bytes=4 * 3 * 100)  # 100 cells of 3 rows
    memo.put("a", _table(40), complete=False)
    memo.put("b", _table(40), complete=False)
    assert memo.get("a", 10) is not None  # "a" is now more recent than "b"
    memo.put("c", _table(40), complete=False)  # over budget: evicts "b"
    assert memo.get("b", 10) is None
    assert memo.get("a", 10) is not None and memo.get("c", 10) is not None
    assert memo.nbytes == 2 * _table(40).nbytes <= memo.budget_bytes
    for step, cells in enumerate((30, 70, 10, 99, 100, 5, 60)):
        memo.put(step, _table(cells), complete=False)
        assert memo.nbytes <= memo.budget_bytes
        assert memo.nbytes == sum(
            entry.table.nbytes for entry in memo._entries.values()
        )
    memo.put("huge", _table(101), complete=False)  # alone over the budget
    assert memo.get("huge", 1) is None


def test_put_keeps_the_entry_that_answers_more():
    memo = OrderingMemo(budget_bytes=1 << 20)
    memo.put("k", _table(50), complete=False)
    memo.put("k", _table(30), complete=False)  # shorter: ignored
    assert memo.get("k", 50).shape == (3, 50)
    memo.put("k", _table(50), complete=True)  # as long, and complete: kept
    assert memo.get("k", 10_000).shape == (3, 50)
    memo.put("k", _table(60), complete=False)  # cannot outgrow a complete one
    assert memo.get("k", 10_000).shape == (3, 50)
    assert memo.nbytes == _table(50).nbytes
