"""Tests for repro.incremental: deltas, dirty regions, patched reports.

Covers the delta codec and diff/apply inverse property, dirty-region
expansion (both backends), seed-trace persistence, the incremental-vs-
full-recompute parity invariant, the store-backed reuse ladder, the
moving-pin perturbation model and the benchmark regression warning.
"""

import dataclasses
import importlib.util
import json
import logging
import math
import os
import pathlib
import pickle
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import (
    GenerationError,
    NetlistError,
    ServiceError,
)
from repro.finder import find_tangled_logic
from repro.finder.config import FinderConfig
from repro.finder.finder import plan_seed_jobs, run_seed_plan
from repro.finder.kernel import compiled_kernel
from repro.generators.perturb import rewire_pins
from repro.generators.random_gtl import planted_gtl_graph
from repro.incremental import (
    CellEdit,
    NetEdit,
    NetlistDelta,
    SeedTrace,
    apply_delta,
    delta_endpoint_cells,
    delta_fingerprint,
    detect_with_reuse,
    diff,
    expand_frontier,
    incremental_detect,
    load_trace,
    run_traced,
)
from repro.incremental.engine import (
    FULL_THRESHOLD,
    KIND_FINDER_TRACE,
    KIND_INCREMENTAL_HEAD,
    KIND_INCREMENTAL_PROVENANCE,
    _head_key,
    _trace_key,
)
from repro.io.binfmt import (
    load_packed,
    netlist_from_bytes,
    packed_fingerprint,
    serialize_netlist,
    write_packed,
)
from repro.netlist.backend import forced_backend
from repro.netlist.builder import NetlistBuilder
from repro.netlist.hypergraph import Netlist
from repro.obs import RunReport, trace
from repro.service import designs
from repro.service.codec import config_to_dict, report_to_dict
from repro.service.fingerprint import (
    FINGERPRINT_CACHE_KEY,
    fingerprint_config,
    fingerprint_netlist,
    job_fingerprint,
)
from repro.service.pool import WorkerPool
from repro.service.store import ResultStore

BACKENDS = ("numpy", "python")

#: Small pinned config: footprints cover a slice of the graph, not all of it.
CFG = FinderConfig(num_seeds=8, max_order_length=20, seed=5)


@pytest.fixture(scope="module")
def base():
    netlist, _ = planted_gtl_graph(1500, [60], seed=3)
    return netlist


def _strip(report):
    payload = report_to_dict(report)
    payload.pop("runtime_seconds", None)
    return payload


def _same_outcome(ours, theirs):
    """Seed outcomes equal in candidate, orderings and footprint (the
    footprint is an array; the Rent estimate may be NaN)."""
    return (
        ours[0] == theirs[0]
        and ours[2] == theirs[2]
        and np.array_equal(ours[3], theirs[3])
    )


# ---------------------------------------------------------------- diff/apply
@pytest.mark.parametrize("backend", BACKENDS)
def test_diff_identical_netlists_is_empty(base, backend):
    with forced_backend(backend):
        delta = diff(base, base)
    assert delta.is_empty
    assert delta.num_edits == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_diff_apply_inverse_on_rewire(base, backend):
    with forced_backend(backend):
        edited, emitted = rewire_pins(base, 0.02, rng=9, return_delta=True)
        delta = diff(base, edited)
    assert not delta.is_empty
    assert delta == emitted  # the perturbation emits exactly what diff sees
    rebuilt = apply_delta(base, delta)
    assert fingerprint_netlist(rebuilt) == fingerprint_netlist(edited)


def _toy():
    builder = NetlistBuilder()
    a = builder.add_cell("a", area=1.0)
    b = builder.add_cell("b", area=2.0)
    c = builder.add_cell("c")
    d = builder.add_cell("d", fixed=True)
    builder.add_net("n1", [a, b])
    builder.add_net("n2", [b, c, d])
    builder.add_net("n3", [a, c])
    return builder.build()


def test_diff_attribute_change():
    old = _toy()
    builder = NetlistBuilder()
    builder.add_cell("a", area=1.0)
    builder.add_cell("b", area=7.5)  # changed
    builder.add_cell("c")
    builder.add_cell("d", fixed=True)
    builder.add_net("n1", [0, 1])
    builder.add_net("n2", [1, 2, 3])
    builder.add_net("n3", [0, 2])
    new = builder.build()
    for backend in BACKENDS:
        with forced_backend(backend):
            delta = diff(old, new)
        assert [c.name for c in delta.cells_changed] == ["b"]
        assert delta.cells_changed[0].area == 7.5
        assert not delta.nets_changed
        assert fingerprint_netlist(apply_delta(old, delta)) == \
            fingerprint_netlist(new)


def test_diff_cell_removal_remaps_surviving_nets():
    """Removing a cell shifts every later index; apply must remap by name."""
    old = _toy()
    builder = NetlistBuilder()
    builder.add_cell("b", area=2.0)
    builder.add_cell("c")
    builder.add_cell("d", fixed=True)
    builder.add_net("n2", [0, 1, 2])  # b, c, d — survives untouched by name
    new = builder.build()
    delta = diff(old, new)
    assert delta.cells_removed == ("a",)
    assert {n.name for n in delta.nets_removed} == {"n1", "n3"}
    rebuilt = apply_delta(old, delta)
    assert fingerprint_netlist(rebuilt) == fingerprint_netlist(new)


def test_diff_cell_and_net_addition():
    old = _toy()
    builder = NetlistBuilder()
    for index in range(old.num_cells):
        builder.add_cell(
            old.cell_name(index), area=old.cell_area(index),
            fixed=old.cell_is_fixed(index),
        )
    e = builder.add_cell("e", area=3.0)
    builder.add_net("n1", [0, 1])
    builder.add_net("n2", [1, 2, 3])
    builder.add_net("n3", [0, 2])
    builder.add_net("n4", [e, 0])
    new = builder.build()
    delta = diff(old, new)
    assert [c.name for c in delta.cells_added] == ["e"]
    assert [n.name for n in delta.nets_added] == ["n4"]
    assert delta.nets_added[0].new_members == ("e", "a")
    assert fingerprint_netlist(apply_delta(old, delta)) == \
        fingerprint_netlist(new)


def test_diff_reorder_degrades_to_full_replacement():
    old = _toy()
    builder = NetlistBuilder()
    builder.add_cell("b", area=2.0)  # "b" before "a": relative order broken
    builder.add_cell("a", area=1.0)
    builder.add_cell("c")
    builder.add_cell("d", fixed=True)
    builder.add_net("n1", [1, 0])
    builder.add_net("n2", [0, 2, 3])
    builder.add_net("n3", [1, 2])
    new = builder.build()
    delta = diff(old, new)
    assert len(delta.cells_removed) == old.num_cells
    assert len(delta.cells_added) == new.num_cells
    assert fingerprint_netlist(apply_delta(old, delta)) == \
        fingerprint_netlist(new)


def _named_ring(cell_names, net_names):
    """Net ``i`` joins cells ``i`` and ``i + 1`` (mod the cell count)."""
    builder = NetlistBuilder()
    for name in cell_names:
        builder.add_cell(name)
    for index, name in enumerate(net_names):
        builder.add_net(name, [index % len(cell_names), (index + 1) % len(cell_names)])
    return builder.build()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", ["cells", "nets"])
def test_diff_inverts_an_addition_ahead_of_a_survivor(backend, kind):
    """``apply_delta`` appends additions, so an added name ahead of a
    surviving one (``n2`` before ``n3``) must make ``diff`` fall back to a
    full replacement rather than emit a delta that reorders the design."""
    old_names, new_names = ("n0", "n1", "y0", "n3"), ("n0", "n1", "n2", "n3")
    others = ("e0", "e1", "e2", "e3")
    if kind == "cells":
        old, new = _named_ring(old_names, others), _named_ring(new_names, others)
    else:
        old, new = _named_ring(others, old_names), _named_ring(others, new_names)
    with forced_backend(backend):
        rebuilt = apply_delta(old, diff(old, new))
    assert (rebuilt.cell_names, rebuilt.net_names) == (new.cell_names, new.net_names)
    assert fingerprint_netlist(rebuilt) == fingerprint_netlist(new)


def test_delta_codec_roundtrip(base):
    _, delta = rewire_pins(base, 0.02, rng=4, return_delta=True)
    wire = json.loads(json.dumps(delta.to_dict()))
    assert NetlistDelta.from_dict(wire) == delta
    with pytest.raises(NetlistError, match="version"):
        NetlistDelta.from_dict({"version": 999})
    with pytest.raises(NetlistError):
        NetlistDelta.from_dict([1, 2, 3])


def test_delta_fingerprint_chains_base_and_edit(base):
    _, d1 = rewire_pins(base, 0.02, rng=4, return_delta=True)
    _, d2 = rewire_pins(base, 0.02, rng=5, return_delta=True)
    fp = fingerprint_netlist(base)
    assert delta_fingerprint(fp, d1) == delta_fingerprint(fp, d1)
    assert delta_fingerprint(fp, d1) != delta_fingerprint(fp, d2)
    assert delta_fingerprint("other-base", d1) != delta_fingerprint(fp, d1)


# ---------------------------------------------------------------- splice parity
def _random_base(rng):
    """A small builder-made netlist whose pin counts leave some slack."""
    builder = NetlistBuilder()
    num_cells = rng.randint(1, 10)
    for index in range(num_cells):
        builder.add_cell(
            f"c{index}", area=rng.choice([0.5, 1.0, 2.25]),
            fixed=rng.random() < 0.2,
        )
    degrees = [0] * num_cells
    for index in range(rng.randint(0, 9)):
        members = rng.sample(range(num_cells), rng.randint(1, min(4, num_cells)))
        builder.add_net(f"n{index}", members)
        for cell in members:
            degrees[cell] += 1
    for cell, degree in enumerate(degrees):
        builder.set_pin_count(cell, degree + rng.choice([0, 3, 8]))
    return builder.build()


#: The ways :func:`_random_delta` can break a delta on purpose.
_FAULTS = (
    "duplicate cell", "area", "pin count", "duplicate net", "empty net",
    "unknown member", "no members", "ghost cell", "ghost net", "short pins",
)


def _random_delta(base, rng):
    """Random cell/net adds, removes and rewires over ``base`` (duplicate
    members included), broken in one of the :data:`_FAULTS` ways half
    of the time."""
    cells = list(base.cell_names)
    nets = list(base.net_names)
    cells_removed = rng.sample(cells, rng.randint(0, min(2, len(cells))))
    if rng.random() < 0.5:
        cells_removed = []
    added_names = [f"x{k}" for k in range(rng.randint(0, 3))]
    if cells_removed and rng.random() < 0.3:
        added_names.append(cells_removed[0])  # removed, then added afresh
    live = [c for c in cells if c not in cells_removed] + added_names

    def attrs(name):
        return CellEdit(name, rng.choice([1.0, 3.5]), rng.randint(6, 12),
                        rng.random() < 0.2)

    def members():
        picked = [rng.choice(live) for _ in range(rng.randint(1, 4))]
        return tuple(picked + picked[:rng.randint(0, 1)])  # maybe repeat one

    nets_removed = rng.sample(nets, rng.randint(0, min(2, len(nets))))
    kept_nets = [n for n in nets if n not in nets_removed]
    rewired = rng.sample(kept_nets, rng.randint(0, min(3, len(kept_nets)))) if live else []
    new_nets = [f"y{k}" for k in range(rng.randint(0, 3) if live else 0)]
    if nets_removed and live and rng.random() < 0.3:
        new_nets.append(nets_removed[0])  # removed, then added afresh
    delta = dict(
        cells_added=[attrs(name) for name in added_names],
        cells_removed=cells_removed,
        cells_changed=[attrs(name) for name in rng.sample(cells, rng.randint(0, min(2, len(cells))))],
        nets_added=[NetEdit(name, new_members=members()) for name in new_nets],
        nets_removed=[NetEdit(name, old_members=("?",)) for name in nets_removed],
        nets_changed=[NetEdit(name, ("?",), members()) for name in rewired],
    )
    if rng.random() < 0.5:
        fault = rng.choice(_FAULTS)
        if fault == "duplicate cell":
            delta["cells_added"].append(attrs(rng.choice(live or cells)))
        elif fault == "area":
            delta["cells_added"].append(
                CellEdit("bad", rng.choice([0.0, -1.0]), rng.choice([9, -1, -1]), False)
            )
        elif fault == "pin count":
            delta["cells_changed"].append(CellEdit(rng.choice(cells), 1.0, -2, False))
        elif fault == "duplicate net" and nets:
            delta["nets_added"].append(NetEdit(rng.choice(nets), new_members=(cells[0],)))
        elif fault == "empty net":
            delta["nets_added"].append(NetEdit("empty", new_members=()))
        elif fault == "unknown member" and nets:
            delta["nets_changed"].append(NetEdit(rng.choice(nets), ("?",), ("nowhere",)))
        elif fault == "no members" and nets:
            delta["nets_changed"].append(NetEdit(rng.choice(nets), ("?",), None))
            delta["nets_added"].append(NetEdit("none"))
        elif fault == "ghost cell":
            delta["cells_removed"].append("ghost")
        elif fault == "ghost net":
            delta["nets_changed"].append(NetEdit("ghost", ("?",), (cells[0],)))
        elif fault == "short pins":
            delta["cells_changed"].append(CellEdit(rng.choice(cells), 1.0, 0, False))
        rng.shuffle(delta["cells_added"])
        rng.shuffle(delta["nets_changed"])
    return NetlistDelta(**{key: tuple(value) for key, value in delta.items()})


def _applied(base, delta, backend):
    """``apply_delta`` on ``backend``: the netlist, or ``(type, message)``."""
    with forced_backend(backend):
        try:
            return apply_delta(base, delta)
        except NetlistError as error:
            return type(error), str(error)


def _assert_same_content(netlist, reference):
    assert netlist == reference and reference == netlist
    for field in vars(reference.arrays):
        ours, theirs = getattr(netlist.arrays, field), getattr(reference.arrays, field)
        assert ours.dtype == theirs.dtype, field
        np.testing.assert_array_equal(ours, theirs, err_msg=field)
    assert netlist.cell_table == reference.cell_table
    assert netlist.net_table == reference.net_table
    assert fingerprint_netlist(netlist) == fingerprint_netlist(reference)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_splice_matches_the_builder(seed):
    """Splice (numpy) and builder (scalar) apply agree on random deltas:
    equal content and fingerprints, or the same error, whether the base
    is builder-made or pack-loaded."""
    rng = random.Random(seed)
    built = _random_base(rng)
    delta = _random_delta(built, rng)
    reference = _applied(built, delta, "python")
    for base in (built, netlist_from_bytes(serialize_netlist(built))):
        for backend in BACKENDS:
            outcome = _applied(base, delta, backend)
            if isinstance(reference, tuple):
                assert outcome == reference, (backend, type(base).__name__)
            else:
                _assert_same_content(outcome, reference)
    if not isinstance(reference, tuple):
        # The way back is a larger delta, applied to a spliced base.
        spliced = _applied(built, delta, "numpy")
        back = diff(reference, built)
        _assert_same_content(
            _applied(spliced, back, "numpy"), _applied(reference, back, "python")
        )
        # ... and it leads back to exactly the base, on either backend.
        for backend in BACKENDS:
            with forced_backend(backend):
                restored = apply_delta(reference, diff(reference, built))
            assert fingerprint_netlist(restored) == fingerprint_netlist(built)


def test_splice_collapses_duplicate_members_to_first_occurrence():
    old = _toy()
    delta = NetlistDelta(
        cells_changed=(CellEdit("d", 1.0, 5, True),),
        nets_changed=(NetEdit("n1", ("a", "b"), ("d", "a", "d", "b", "a")),),
    )
    for backend in BACKENDS:
        edited = _applied(old, delta, backend)
        assert edited.cells_of_net(edited.net_index("n1")) == (3, 0, 1)
        assert edited.nets_of_cell(3) == (0, 1)


@pytest.mark.parametrize("backend", BACKENDS)
def test_apply_delta_rejects_edits_the_base_lacks(backend):
    """A delta meant for another base fails loudly, naming the first name
    it edits that the base does not have."""
    old = _toy()
    ghosts = [
        (NetlistDelta(cells_removed=("ghost",)), "cell 'ghost'"),
        (NetlistDelta(cells_changed=(CellEdit("ghost", 1.0, 1, False),)),
         "cell 'ghost'"),
        (NetlistDelta(nets_removed=(NetEdit("ghost_net", ("a",)),)),
         "net 'ghost_net'"),
        (NetlistDelta(nets_changed=(NetEdit("ghost_net", ("a",), ("b",)),)),
         "net 'ghost_net'"),
        (NetlistDelta(
            cells_changed=(CellEdit("b", 1.0, 9, False),
                           CellEdit("first", 1.0, 1, False)),
            nets_removed=(NetEdit("second", ("a",)),),
        ), "cell 'first'"),
    ]
    for base in (old, netlist_from_bytes(serialize_netlist(old))):
        for delta, named in ghosts:
            with forced_backend(backend), pytest.raises(
                NetlistError, match=f"delta edits {named}, which the base"
            ):
                apply_delta(base, delta)


def test_one_design_has_one_fingerprint(base, tmp_path):
    """Builder-made, pack-loaded, spliced and pickled copies of one design
    hash alike, and the bulk hash agrees with the pack header."""
    path = str(tmp_path / "base.nla")
    write_packed(base, path)
    edited = rewire_pins(base, 0.01, rng=3)
    with forced_backend("numpy"):
        spliced = apply_delta(edited, diff(edited, base))
        unchanged = apply_delta(load_packed(path), NetlistDelta())
    copies = [
        base,
        load_packed(path),
        spliced,
        unchanged,
        pickle.loads(pickle.dumps(base)),
        pickle.loads(pickle.dumps(load_packed(path))),
    ]
    assert isinstance(spliced, Netlist)
    expected = fingerprint_netlist(base)
    assert packed_fingerprint(path) == expected
    for copy in copies:
        copy.derived_cache.pop(FINGERPRINT_CACHE_KEY, None)
        assert fingerprint_netlist(copy) == expected
    assert fingerprint_netlist(edited) != expected


def test_kernel_paths_never_build_the_tuple_adjacency(tmp_path):
    """A detect on a pack-loaded design, an ECO splice into it and an
    incremental re-detect read only the CSR arrays: the tuple adjacency
    behind ``nets_of_cell``/``cells_of_net``/``neighbors`` stays unbuilt."""
    if compiled_kernel() is None:
        pytest.skip("the scalar grower fallback reads the tuple adjacency")
    built, _ = planted_gtl_graph(4000, [150], seed=7)
    _, delta = rewire_pins(built, 0.001, rng=1, return_delta=True)
    path = str(tmp_path / "base.nla")
    write_packed(built, path)
    base = load_packed(path)
    config = FinderConfig(num_seeds=8, seed=1)
    with forced_backend("numpy"):
        find_tangled_logic(base, config)
        edited = apply_delta(base, delta)
        with ResultStore(str(tmp_path / "cache")) as store:
            detect_with_reuse(base, config, store)
            result = detect_with_reuse(
                edited, config, store, base=base, delta=delta
            )
    assert result.mode == "incremental"
    assert base._adjacency is None and edited._adjacency is None

    # Without a known delta the engine diffs the two designs itself, and a
    # diff of two pack-loaded designs reads the CSR arrays too.
    edited_path = str(tmp_path / "edited.nla")
    write_packed(edited, edited_path)
    loaded = [load_packed(path), load_packed(edited_path)]
    with forced_backend("numpy"):
        with ResultStore(str(tmp_path / "cache-diff")) as store:
            detect_with_reuse(loaded[0], config, store)
            unknown = detect_with_reuse(loaded[1], config, store, base=loaded[0])
        assert unknown.mode == "incremental"
        assert unknown.delta_fingerprint == delta_fingerprint(
            fingerprint_netlist(loaded[0]), delta
        )
        pair = [load_packed(path), load_packed(edited_path)]
        assert diff(*pair) == delta
    assert all(netlist._adjacency is None for netlist in loaded + pair)


# ---------------------------------------------------------------- dirty region
def test_dirty_endpoints_cover_both_sides_of_a_rewire():
    old = _toy()
    delta = NetlistDelta(
        cells_changed=(
            CellEdit("a", 1.0, old.cell_pin_count(0) - 1, False),
            CellEdit("c", 1.0, old.cell_pin_count(2) + 1, False),
        ),
        nets_changed=(NetEdit("n1", ("a", "b"), ("c", "b")),),
    )
    new = apply_delta(old, delta)
    endpoints = delta_endpoint_cells(new, delta)
    # Losing cell "a", gaining cell "c", and untouched co-member "b".
    assert {new.cell_name(i) for i in endpoints} == {"a", "b", "c"}


def test_expand_frontier_backends_agree(base):
    seed_cells = {3, 77, 191}
    for hops in (0, 1, 2):
        with forced_backend("numpy"):
            numpy_region = expand_frontier(base, seed_cells, hops)
        with forced_backend("python"):
            scalar_region = expand_frontier(base, seed_cells, hops)
        assert numpy_region == scalar_region
        assert seed_cells <= numpy_region


# ---------------------------------------------------------------- seed traces
def test_run_traced_codec_roundtrip(base):
    report, seed_trace = run_traced(base, CFG)
    assert len(seed_trace.jobs) == CFG.num_seeds
    assert len(seed_trace.outcomes) == CFG.num_seeds
    assert all(len(outcome[3]) for outcome in seed_trace.outcomes)  # footprints
    wire = json.loads(json.dumps(seed_trace.to_dict()))
    restored = SeedTrace.from_dict(wire)
    assert restored.netlist_fingerprint == seed_trace.netlist_fingerprint
    assert restored.jobs == seed_trace.jobs
    assert fingerprint_config(restored.config) == fingerprint_config(CFG)
    for ours, theirs in zip(seed_trace.outcomes, restored.outcomes):
        assert _same_outcome(ours, theirs)
        assert (ours[1] == theirs[1]) or (
            math.isnan(ours[1]) and math.isnan(theirs[1])
        )
        assert theirs[3].dtype == np.int64 and not theirs[3].flags.writeable
    with pytest.raises(ServiceError, match="seed-trace"):
        SeedTrace.from_dict({"version": -1})


def _with_workers(payload, seed_trace):
    """The trace as stored while ``FinderConfig`` still had ``workers``."""
    payload["config"]["workers"] = 1
    return payload


def _version_1(payload, seed_trace):
    """The trace in the version-1 layout: every footprint and candidate as
    a JSON list of cells."""
    def candidate_row(candidate):
        if candidate is None:
            return None
        stats = candidate.stats
        return [
            sorted(candidate.cells), candidate.score,
            [stats.size, stats.cut, stats.pins, stats.internal_nets, stats.avg_pins],
            candidate.rent_exponent, candidate.seed,
        ]

    old = {key: payload[key] for key in (
        "netlist_fingerprint", "config", "num_cells", "num_pins", "jobs"
    )}
    old["version"] = 1
    old["outcomes"] = [
        [candidate_row(candidate), None if math.isnan(rent) else rent,
         orderings, footprint.tolist()]
        for candidate, rent, orderings, footprint in seed_trace.outcomes
    ]
    return old


@pytest.mark.parametrize(
    "stale, error",
    [
        (_with_workers, "unknown FinderConfig fields"),
        (_version_1, "unsupported seed-trace payload"),
    ],
    ids=["workers-config", "version-1"],
)
def test_trace_with_a_workers_config_is_evicted_and_the_edit_runs_in_full(
    base, tmp_path, stale, error
):
    """A seed trace that no longer decodes — stored while ``FinderConfig``
    still had ``workers``, or in the version-1 layout of JSON cell lists —
    is evicted, the edit runs in full (identical to a cold run) and writes
    a trace the next edit can patch from."""
    edited = rewire_pins(base, 0.001, rng=1)
    with ResultStore(str(tmp_path)) as store:
        detect_with_reuse(base, CFG, store)
        job_fp = job_fingerprint(base, CFG)
        key = _trace_key(job_fp)
        seed_trace = load_trace(store, job_fp)
        payload = stale(store.get_payload(key, kind=KIND_FINDER_TRACE), seed_trace)
        store.put_payload(key, payload, kind=KIND_FINDER_TRACE)
        with pytest.raises(ServiceError, match=error):
            SeedTrace.from_dict(payload)

        result = detect_with_reuse(edited, CFG, store)
        assert (result.mode, result.reason) == ("full", "no traced base run")
        assert store.get_payload(key, kind=KIND_FINDER_TRACE) is None
        edited_trace = load_trace(store, job_fingerprint(edited, CFG))
        assert "workers" not in config_to_dict(edited_trace.config)
    cold, _ = run_traced(edited, CFG)
    assert _strip(result.report) == _strip(cold)


# ---------------------------------------------------------------- parity
@pytest.mark.parametrize("backend", BACKENDS)
def test_incremental_matches_cold_run(base, backend):
    """The invariant: a patched report is bit-identical to a cold run."""
    with forced_backend(backend):
        _, seed_trace = run_traced(base, CFG)
        edited, delta = rewire_pins(base, 0.001, rng=1, return_delta=True)
        result = incremental_detect(base, edited, seed_trace, CFG)
        cold, _ = run_traced(edited, CFG)
    assert result.mode == "incremental"
    # Strict inequality: some seeds were genuinely replayed from the trace.
    assert 0 < result.seeds_recomputed < result.seeds_total
    assert _strip(result.report) == _strip(cold)
    # The emitted trace must equal a cold trace: the chain stays exact.
    assert result.trace.netlist_fingerprint == fingerprint_netlist(edited)
    assert result.base_fingerprint == fingerprint_netlist(base)
    assert result.delta_fingerprint == delta_fingerprint(
        fingerprint_netlist(base), delta
    )


@pytest.fixture(scope="module", params=BACKENDS)
def cold_plan(request, base):
    """``(backend, jobs, report, outcomes)`` of a cold run on ``base``."""
    with forced_backend(request.param):
        jobs = plan_seed_jobs(base, CFG)
        report, outcomes = run_seed_plan(base, CFG, jobs)
    return request.param, jobs, report, outcomes


@settings(max_examples=12, deadline=None)
@given(
    known_mask=st.lists(
        st.booleans(), min_size=CFG.num_seeds, max_size=CFG.num_seeds
    ),
    pooled=st.booleans(),
)
@example(known_mask=[True] * CFG.num_seeds, pooled=False)
@example(known_mask=[True] * CFG.num_seeds, pooled=True)
@example(known_mask=[False] * CFG.num_seeds, pooled=False)
@example(known_mask=[False] * CFG.num_seeds, pooled=True)
def test_run_seed_plan_runs_exactly_the_unknown_seeds(
    base, cold_plan, known_mask, pooled
):
    """Any subset of a cold run's outcomes, taken as known, gives the cold
    report back and runs exactly the other seeds — none when all are
    known, every one (a cold run) when none are."""
    backend, jobs, cold, cold_outcomes = cold_plan
    known = {i: cold_outcomes[i] for i, hit in enumerate(known_mask) if hit}
    trace.enable()
    try:
        with forced_backend(backend), WorkerPool(2) as pool:
            report, outcomes = run_seed_plan(
                base, CFG, jobs, pool if pooled else None, known
            )
        counters = RunReport.from_tracer().counters()
    finally:
        trace.disable()
    assert _strip(report) == _strip(cold)
    assert counters.get("finder.seeds", 0) == len(jobs) - len(known)
    assert len(outcomes) == len(jobs)
    assert all(outcomes[i] is outcome for i, outcome in known.items())
    for ours, theirs in zip(outcomes, cold_outcomes):
        assert _same_outcome(ours, theirs)


def test_patch_runs_its_seeds_as_one_finder_run(base):
    """The patch's seeds run in one ``finder.run`` under
    ``incremental.patch``, and the report's runtime covers the whole
    ``incremental.detect`` span."""
    _, seed_trace = run_traced(base, CFG)
    edited = rewire_pins(base, 0.001, rng=1)
    trace.enable()
    try:
        result = incremental_detect(base, edited, seed_trace, CFG)
        spans = RunReport.from_tracer().spans
    finally:
        trace.disable()
    assert result.mode == "incremental"
    by_id = {span["span_id"]: span for span in spans}
    (run,) = [span for span in spans if span["name"] == "finder.run"]
    assert by_id[run["parent_id"]]["name"] == "incremental.patch"
    assert run["attrs"]["known"] == result.seeds_reused
    (detect,) = [span for span in spans if span["name"] == "incremental.detect"]
    assert result.report.runtime_seconds >= detect["duration"]


def test_incremental_accepts_precomputed_delta(base):
    _, seed_trace = run_traced(base, CFG)
    edited, delta = rewire_pins(base, 0.001, rng=1, return_delta=True)
    implicit = incremental_detect(base, edited, seed_trace, CFG)
    explicit = incremental_detect(base, edited, seed_trace, CFG, delta=delta)
    assert _strip(explicit.report) == _strip(implicit.report)
    assert explicit.delta_fingerprint == implicit.delta_fingerprint


def test_incremental_chains_across_two_edits(base):
    """delta fingerprints chain: base -> edit1 -> edit2, parity at each hop."""
    _, trace0 = run_traced(base, CFG)
    edit1, _ = rewire_pins(base, 0.001, rng=1, return_delta=True)
    step1 = incremental_detect(base, edit1, trace0, CFG)
    edit2, _ = rewire_pins(edit1, 0.001, rng=2, return_delta=True)
    step2 = incremental_detect(edit1, edit2, step1.trace, CFG)
    cold, _ = run_traced(edit2, CFG)
    assert step2.mode == "incremental"
    assert step2.base_fingerprint == fingerprint_netlist(edit1)
    assert _strip(step2.report) == _strip(cold)


def test_incremental_validation_errors(base):
    _, seed_trace = run_traced(base, CFG)
    edited = rewire_pins(base, 0.001, rng=1)
    other, _ = planted_gtl_graph(500, [50], seed=21)
    with pytest.raises(ServiceError, match="does not belong"):
        incremental_detect(other, edited, seed_trace, CFG)
    with pytest.raises(ServiceError, match="different finder config"):
        incremental_detect(
            base, edited, seed_trace, FinderConfig(num_seeds=9, seed=5)
        )
    with pytest.raises(ServiceError, match="pinned"):
        incremental_detect(
            base, edited, seed_trace,
            FinderConfig(num_seeds=8, max_order_length=20, seed=None),
        )


# ---------------------------------------------------------------- fallbacks
def test_fallback_on_cell_set_change(base):
    _, seed_trace = run_traced(base, CFG)
    builder = NetlistBuilder()
    for index in range(base.num_cells):
        builder.add_cell(base.cell_name(index), area=base.cell_area(index))
    extra = builder.add_cell("brand_new_cell")
    for index in range(base.num_nets):
        builder.add_net(base.net_name(index), list(base.cells_of_net(index)))
    builder.add_net("brand_new_net", [extra, 0])
    edited = builder.build(drop_singleton_nets=False)
    result = incremental_detect(base, edited, seed_trace, CFG)
    assert result.mode == "full"
    assert result.reason == "cell set changed"
    cold, _ = run_traced(edited, CFG)
    assert _strip(result.report) == _strip(cold)


def test_fallback_on_fixed_flag_change(base):
    _, seed_trace = run_traced(base, CFG)
    victim = base.movable_cells()[0]
    builder = NetlistBuilder()
    for index in range(base.num_cells):
        builder.add_cell(
            base.cell_name(index), area=base.cell_area(index),
            pin_count=base.cell_pin_count(index),
            fixed=True if index == victim else base.cell_is_fixed(index),
        )
    for index in range(base.num_nets):
        builder.add_net(base.net_name(index), list(base.cells_of_net(index)))
    edited = builder.build(drop_singleton_nets=False)
    result = incremental_detect(base, edited, seed_trace, CFG)
    assert result.mode == "full"
    assert result.reason == "fixed flags changed"


def test_fallback_on_total_pin_change(base):
    _, seed_trace = run_traced(base, CFG)
    builder = NetlistBuilder()
    for index in range(base.num_cells):
        builder.add_cell(
            base.cell_name(index), area=base.cell_area(index),
            pin_count=base.cell_pin_count(index) + (1 if index == 0 else 0),
        )
    for index in range(base.num_nets):
        builder.add_net(base.net_name(index), list(base.cells_of_net(index)))
    edited = builder.build(drop_singleton_nets=False)
    result = incremental_detect(base, edited, seed_trace, CFG)
    assert result.mode == "full"
    assert result.reason == "total pin count changed"


def test_fallback_on_dirty_fraction_threshold(base):
    _, seed_trace = run_traced(base, CFG)
    # Rewiring 1% of the pins dirties ~40% of this design.
    edited, _ = rewire_pins(base, 0.01, rng=1, return_delta=True)
    result = incremental_detect(base, edited, seed_trace, CFG)
    assert result.mode == "full"
    assert "dirty fraction" in result.reason
    assert result.dirty_fraction > FULL_THRESHOLD
    assert result.dirty_cells > 0
    cold, _ = run_traced(edited, CFG)
    assert _strip(result.report) == _strip(cold)


# ---------------------------------------------------------------- reuse ladder
def test_detect_with_reuse_ladder(base, tmp_path):
    edited = rewire_pins(base, 0.001, rng=1)
    with ResultStore(str(tmp_path)) as store:
        first = detect_with_reuse(base, CFG, store)
        assert first.mode == "full"
        assert first.reason == "no traced base run"
        job_fp = job_fingerprint(base, CFG)
        assert store.get_payload(job_fp, kind="finder_report") is not None
        assert load_trace(store, job_fp) is not None
        assert os.path.exists(designs.pack_path(store, fingerprint_netlist(base)))
        head = store.get_payload(_head_key(CFG, base), kind=KIND_INCREMENTAL_HEAD)
        assert head["netlist_fingerprint"] == fingerprint_netlist(base)

        second = detect_with_reuse(base, CFG, store)
        assert second.mode == "cached"
        assert _strip(second.report) == _strip(first.report)

        # The edit resolves its base via the head pointer + design blob.
        third = detect_with_reuse(edited, CFG, store)
        assert third.mode == "incremental"
        assert third.base_fingerprint == fingerprint_netlist(base)
        assert 0 < third.seeds_recomputed <= third.seeds_total
        cold, _ = run_traced(edited, CFG)
        assert _strip(third.report) == _strip(cold)
        provenance = store.get_payload(
            f"prov-{job_fingerprint(edited, CFG)}",
            kind=KIND_INCREMENTAL_PROVENANCE,
        )
        assert provenance["mode"] == "incremental"
        assert provenance["base_fingerprint"] == fingerprint_netlist(base)
        assert provenance["dirty_cells"] == third.dirty_cells

        fourth = detect_with_reuse(edited, CFG, store)
        assert fourth.mode == "cached"

        counts = store.kind_counts()
        assert counts[KIND_FINDER_TRACE] == 2
        assert counts[KIND_INCREMENTAL_PROVENANCE] == 1
        assert counts[KIND_INCREMENTAL_HEAD] == 1


def _renamed(netlist, prefix):
    """``netlist`` with every cell and net name prefixed: the same cell
    and pin counts under another cell name table."""
    builder = NetlistBuilder()
    for index in range(netlist.num_cells):
        builder.add_cell(
            prefix + netlist.cell_name(index), area=netlist.cell_area(index),
            pin_count=netlist.cell_pin_count(index),
            fixed=netlist.cell_is_fixed(index),
        )
    for index in range(netlist.num_nets):
        builder.add_net(prefix + netlist.net_name(index), list(netlist.cells_of_net(index)))
    return builder.build(drop_singleton_nets=False)


@pytest.mark.parametrize("names", ["positional", "renamed"])
def test_head_is_keyed_by_the_cell_table_and_pin_total(base, tmp_path, names):
    """Another design of equal cell count under the same config finds no
    head, so it runs in full without diffing against the first: with the
    generator's positional names (``v0..``, as ``.hgr`` files name cells)
    its pin total differs, renamed its cell name table does too.  The
    first design's edit still patches through its head."""
    other, _ = planted_gtl_graph(1500, [60], seed=4)
    if names == "renamed":
        other = _renamed(other, "b_")
    else:
        assert other.cell_table.digest() == base.cell_table.digest()
    assert other.num_cells == base.num_cells
    assert other.num_pins != base.num_pins
    edited = rewire_pins(base, 0.001, rng=1)
    with ResultStore(str(tmp_path)) as store:
        detect_with_reuse(base, CFG, store)
        trace.enable()
        try:
            unrelated = detect_with_reuse(other, CFG, store)
            spans = RunReport.from_tracer().spans
        finally:
            trace.disable()
        assert (unrelated.mode, unrelated.reason) == ("full", "no traced base run")
        assert "incremental.diff" not in {span["name"] for span in spans}

        patched = detect_with_reuse(edited, CFG, store)
        assert patched.mode == "incremental"
        assert patched.base_fingerprint == fingerprint_netlist(base)
        cold, _ = run_traced(edited, CFG)
        assert _strip(patched.report) == _strip(cold)


def test_unloadable_base_pack_falls_back_to_a_full_run(
    base, tmp_path, caplog, propagating_repro_logs
):
    """A base pack cut short (a writer killed mid-write by an older build)
    is dropped with one warning; the edit runs full, and that run leaves a
    sound base behind for the next edit."""
    edited = rewire_pins(base, 0.001, rng=1)
    with ResultStore(str(tmp_path)) as store:
        detect_with_reuse(base, CFG, store)
        path = designs.pack_path(store, fingerprint_netlist(base))
        with open(path, "r+b") as handle:
            handle.truncate(100)
        with caplog.at_level(logging.WARNING, logger="repro.service.designs"):
            result = detect_with_reuse(edited, CFG, store)
        assert result.mode == "full"
        assert result.reason == f"unloadable design pack {path} removed"
        assert not os.path.exists(path)
        warnings = [r for r in caplog.records if "unloadable design pack" in r.getMessage()]
        assert len(warnings) == 1
        cold, _ = run_traced(edited, CFG)
        assert _strip(result.report) == _strip(cold)

        assert os.path.exists(designs.pack_path(store, fingerprint_netlist(edited)))
        again = detect_with_reuse(rewire_pins(edited, 0.001, rng=2), CFG, store)
        assert again.mode == "incremental"
        assert again.base_fingerprint == fingerprint_netlist(edited)


def test_detect_with_reuse_explicit_base(base, tmp_path):
    """An explicit base netlist works without any head pointer."""
    edited = rewire_pins(base, 0.001, rng=1)
    with ResultStore(str(tmp_path)) as store:
        detect_with_reuse(base, CFG, store)
        store.evict(_head_key(CFG, base))
        result = detect_with_reuse(edited, CFG, store, base=base)
        assert result.mode == "incremental"


def test_detect_with_reuse_without_store_or_seed(base, tmp_path):
    result = detect_with_reuse(base, CFG, None)
    assert result.mode == "full" and result.reason == "no result store"
    unpinned = FinderConfig(num_seeds=4, max_order_length=20, seed=None)
    with ResultStore(str(tmp_path)) as store:
        result = detect_with_reuse(base, unpinned, store)
        assert result.mode == "full" and result.reason == "unpinned seed"
        assert store.kind_counts() == {}  # nondeterministic runs never persist


def test_detect_with_reuse_without_store_keeps_the_trace(base):
    result = detect_with_reuse(base, CFG, None)
    assert result.trace is not None
    assert result.seeds_total == result.seeds_recomputed == len(result.trace.jobs)
    assert result.seeds_total == CFG.num_seeds


def test_load_trace_evicts_malformed_payloads(base, tmp_path):
    with ResultStore(str(tmp_path)) as store:
        store.put_payload(
            _trace_key("deadbeef"), {"version": 999}, kind=KIND_FINDER_TRACE
        )
        assert load_trace(store, "deadbeef") is None
        assert store.get_payload(_trace_key("deadbeef")) is None  # evicted


# ---------------------------------------------------------------- design records
def _live_pack(netlist, tmp_path):
    """``netlist`` written to a ``.nla`` outside any cache dir and loaded
    back from it, as ``repro detect design.nla`` or the daemon loads it."""
    path = str(tmp_path / "live.nla")
    write_packed(netlist, path)
    return path, load_packed(path)


@pytest.mark.parametrize("fault", ["replaced", "deleted"])
def test_a_stale_design_reference_runs_the_edit_in_full(base, tmp_path, fault):
    """A base loaded from a live ``.nla`` is recorded by reference (no
    pack).  When that file is replaced by another design or deleted, the
    next edit runs in full with the reason, and the reference is evicted."""
    path, live = _live_pack(base, tmp_path)
    edited = rewire_pins(base, 0.001, rng=1)
    other, _ = planted_gtl_graph(1500, [60], seed=4)
    with ResultStore(str(tmp_path / "cache")) as store:
        detect_with_reuse(live, CFG, store)
        assert not os.path.exists(designs.pack_path(store, fingerprint_netlist(base)))
        assert store.kind_counts()[designs.KIND_DESIGN_REFERENCE] == 1
        if fault == "replaced":
            write_packed(other, path)
            why = f"now holds design {fingerprint_netlist(other)[:12]}"
        else:
            os.unlink(path)
            why = "is gone"
        result = detect_with_reuse(edited, CFG, store)
        assert (result.mode, result.reason) == (
            "full", f"referenced design pack {os.path.abspath(path)} {why}"
        )
        assert designs.KIND_DESIGN_REFERENCE not in store.kind_counts()
    cold, _ = run_traced(edited, CFG)
    assert _strip(result.report) == _strip(cold)


def test_a_design_reference_is_written_once(base, tmp_path):
    """Every computed detect of a live ``.nla`` records its design; an
    identical reference row already stored is not rewritten."""
    _, live = _live_pack(base, tmp_path)
    with ResultStore(str(tmp_path / "cache")) as store:
        kinds = []
        put_payload = store.put_payload

        def counting_put(fingerprint, payload, kind, **kwargs):
            kinds.append(kind)
            put_payload(fingerprint, payload, kind, **kwargs)

        store.put_payload = counting_put
        for seed in (1, 2, 3):
            result = detect_with_reuse(live, dataclasses.replace(CFG, seed=seed), store)
            assert result.mode == "full"
        assert kinds.count(designs.KIND_DESIGN_REFERENCE) == 1
        assert kinds.count(KIND_FINDER_TRACE) == 3
        assert store.kind_counts()[designs.KIND_DESIGN_REFERENCE] == 1


def test_an_edit_record_that_rebuilds_another_design_is_evicted(base, tmp_path):
    e1 = rewire_pins(base, 0.001, rng=1)
    e2 = rewire_pins(e1, 0.001, rng=2)
    _, wrong = rewire_pins(base, 0.001, rng=3, return_delta=True)
    e1_fp = fingerprint_netlist(e1)
    with ResultStore(str(tmp_path)) as store:
        detect_with_reuse(base, CFG, store)
        assert detect_with_reuse(e1, CFG, store).mode == "incremental"
        key = f"design-{e1_fp}"
        row = store.get_payload(key, kind=designs.KIND_DESIGN_EDIT)
        store.put_payload(key, {**row, "delta": wrong.to_dict()},
                          kind=designs.KIND_DESIGN_EDIT)
        result = detect_with_reuse(e2, CFG, store)
        assert result.mode == "full"
        assert result.reason.startswith(f"edit record of {e1_fp[:12]} rebuilds design ")
        assert result.reason.endswith("; evicted")
        counts = store.kind_counts()
        assert designs.KIND_DESIGN_EDIT not in counts
        assert designs.KIND_EDIT_TARGET not in counts
        assert designs.resolve(store, e1_fp) == (None, f"no design record of {e1_fp[:12]}")
    cold, _ = run_traced(e2, CFG)
    assert _strip(result.report) == _strip(cold)


@pytest.mark.parametrize("backend", BACKENDS)
def test_an_edit_of_an_edit_rebuilds_its_base_with_one_splice_and_is_packed(
    base, tmp_path, backend, count_splices
):
    """base (pack) -> e1 (recorded as an edit of base) -> e2 against e1
    through the head pointer: e1 comes back with one splice, and e2 gets a
    pack because an edit's base must be a pack or a reference."""
    e1 = rewire_pins(base, 0.001, rng=1)
    e2 = rewire_pins(e1, 0.001, rng=2)
    with forced_backend(backend), ResultStore(str(tmp_path)) as store:
        detect_with_reuse(base, CFG, store)
        first = detect_with_reuse(e1, CFG, store)
        assert first.mode == "incremental"
        assert not os.path.exists(designs.pack_path(store, fingerprint_netlist(e1)))
        assert store.kind_counts()[designs.KIND_DESIGN_EDIT] == 1
        assert count_splices == []
        second = detect_with_reuse(e2, CFG, store)
        assert second.mode == "incremental"
        assert second.base_fingerprint == fingerprint_netlist(e1)
        assert len(count_splices) == 1
        assert os.path.exists(designs.pack_path(store, fingerprint_netlist(e2)))
        assert store.kind_counts()[designs.KIND_DESIGN_EDIT] == 1
        for result, edited in ((first, e1), (second, e2)):
            cold, _ = run_traced(edited, CFG)
            assert _strip(result.report) == _strip(cold)


def test_design_records_of_another_version_read_as_misses(base, tmp_path):
    path, live = _live_pack(base, tmp_path)
    edited = rewire_pins(base, 0.001, rng=1)
    base_fp = fingerprint_netlist(base)
    with ResultStore(str(tmp_path / "cache")) as store:
        detect_with_reuse(live, CFG, store)
        result = detect_with_reuse(edited, CFG, store)
        delta_fp = result.delta_fingerprint
        assert designs.edit_target(store, delta_fp) == fingerprint_netlist(edited)
        for key, kind, field in (
            (f"design-{base_fp}", designs.KIND_DESIGN_REFERENCE, "fingerprint_version"),
            (f"edit-{delta_fp}", designs.KIND_EDIT_TARGET, "delta_version"),
        ):
            row = store.get_payload(key, kind=kind)
            store.put_payload(key, {**row, field: row[field] + 1}, kind=kind)
        assert designs.edit_target(store, delta_fp) is None
        assert designs.resolve(store, base_fp) == (None, f"no design record of {base_fp[:12]}")
        assert store.kind_counts().get(designs.KIND_DESIGN_REFERENCE) is None
        assert os.path.exists(path)


# ---------------------------------------------------------------- perturb
def test_rewire_zero_fraction_returns_same_object(base):
    assert rewire_pins(base, 0.0) is base
    netlist, delta = rewire_pins(base, 0.0, return_delta=True)
    assert netlist is base
    assert delta.is_empty


def test_rewire_is_seed_deterministic(base):
    a = rewire_pins(base, 0.05, rng=13)
    b = rewire_pins(base, 0.05, rng=13)
    c = rewire_pins(base, 0.05, rng=14)
    assert fingerprint_netlist(a) == fingerprint_netlist(b)
    assert fingerprint_netlist(a) != fingerprint_netlist(c)


def test_rewire_preserves_pin_accounting(base):
    edited, delta = rewire_pins(base, 0.05, rng=13, return_delta=True)
    assert edited.num_cells == base.num_cells
    assert edited.num_nets == base.num_nets
    assert edited.num_pins == base.num_pins  # moves, never creates pins
    for index in range(base.num_nets):
        assert len(edited.cells_of_net(index)) == len(base.cells_of_net(index))
    shifts = {
        edit.name: edit.pin_count - base.cell_pin_count(
            base.cell_index(edit.name)
        )
        for edit in delta.cells_changed
    }
    assert sum(shifts.values()) == 0


def test_rewire_validation():
    netlist, _ = planted_gtl_graph(200, [20], seed=1)
    with pytest.raises(GenerationError):
        rewire_pins(netlist, -0.1)
    with pytest.raises(GenerationError):
        rewire_pins(netlist, 1.5)


# ---------------------------------------------------------------- bench guard
@pytest.fixture()
def propagating_repro_logs():
    """Let ``repro.*`` records reach caplog's root handler.

    ``repro.obs.logcfg.configure_logging`` (run by earlier tests) sets
    ``propagate = False`` on the ``repro`` logger, which would hide bench
    warnings from caplog.
    """
    logger = logging.getLogger("repro")
    previous = logger.propagate
    logger.propagate = True
    yield
    logger.propagate = previous


def _load_record_module():
    path = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "_record.py"
    spec = importlib.util.spec_from_file_location("bench_record", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_record_warns_on_headline_regression(
    tmp_path, caplog, propagating_repro_logs
):
    bench_record = _load_record_module()
    out = tmp_path / "BENCH_x.json"
    bench_record.record("x", {"speedup": 20.0}, path=out, headline="speedup")
    with caplog.at_level(logging.INFO, logger="repro.obs.bench"):
        bench_record.record("x", {"speedup": 19.0}, path=out, headline="speedup")
        assert not any(r.levelno == logging.WARNING for r in caplog.records)
        bench_record.record("x", {"speedup": 10.0}, path=out, headline="speedup")
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "regressed" in warnings[0].getMessage()
    assert json.loads(out.read_text())["results"]["speedup"] == 10.0


def test_bench_record_lower_is_better_direction(
    tmp_path, caplog, propagating_repro_logs
):
    bench_record = _load_record_module()
    out = tmp_path / "BENCH_y.json"
    bench_record.record(
        "y", {"latency": 1.0}, path=out, headline="latency",
        higher_is_better=False,
    )
    with caplog.at_level(logging.INFO, logger="repro.obs.bench"):
        bench_record.record(
            "y", {"latency": 1.5}, path=out, headline="latency",
            higher_is_better=False,
        )
    assert any(
        r.levelno == logging.WARNING and "regressed" in r.getMessage()
        for r in caplog.records
    )


def test_bench_record_smoke_never_overwrites_full(tmp_path):
    bench_record = _load_record_module()
    out = tmp_path / "BENCH_z.json"
    bench_record.record("z", {"speedup": 20.0}, path=out)
    bench_record.record("z", {"speedup": 1.0}, path=out, smoke=True)
    assert json.loads(out.read_text())["results"]["speedup"] == 20.0


def test_bench_record_notes_host_shape(tmp_path):
    import numpy

    bench_record = _load_record_module()
    out = tmp_path / "BENCH_h.json"
    bench_record.record("h", {"speedup": 2.0}, path=out)
    data = json.loads(out.read_text())
    assert data["cpu_count"] == os.cpu_count()
    assert data["numpy"] == numpy.__version__
