"""Parity of the array detection kernel against the scalar reference.

The contract (see :mod:`repro.netlist.backend`): both backends grow
bit-identical orderings, produce identical integer prefix curves and group
statistics, score within 1e-9 of each other, and detect the *same* GTL
cell sets — so detection artifacts and flow caches are shared across
backends.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FinderError
from repro.finder import FinderConfig, find_tangled_logic
from repro.finder.candidate import extract_candidate, scan_ordering, score_curve
from repro.finder.kernel import ArrayOrderingGrower, KernelTables
from repro.finder.ordering import LinearOrderingGrower, grow_linear_ordering
from repro.flow.flow import Flow
from repro.flow.stages import DetectStage
from repro.generators.random_gtl import planted_gtl_graph
from repro.metrics.gtl_score import ScoreContext
from repro.netlist.backend import forced_backend
from repro.netlist.builder import NetlistBuilder
from repro.netlist.ops import (
    PrefixScanner,
    group_connected,
    group_stats,
    scan_ordering_curves,
)
from repro.service.store import ResultStore


def _random_netlist(rng, max_cells=32, with_fixed=True):
    builder = NetlistBuilder()
    num_cells = rng.randint(4, max_cells)
    cells = [
        builder.add_cell(
            f"c{i}", fixed=(with_fixed and i > 1 and rng.random() < 0.1)
        )
        for i in range(num_cells)
    ]
    for i in range(rng.randint(3, 3 * num_cells)):
        degree = rng.randint(2, min(8, num_cells))
        builder.add_net(f"n{i}", rng.sample(cells, degree))
    return builder.build()


# ---------------------------------------------------------------- growers
def test_array_grower_rejects_bad_seeds(mixed_netlist):
    with pytest.raises(FinderError):
        ArrayOrderingGrower(mixed_netlist, 99)
    with pytest.raises(FinderError):
        ArrayOrderingGrower(mixed_netlist, 3)  # the pad
    assert ArrayOrderingGrower(mixed_netlist, 3, exclude_fixed=False).ordering == [3]


def test_kernel_tables_cached_per_netlist(mixed_netlist):
    assert KernelTables.for_netlist(mixed_netlist) is KernelTables.for_netlist(
        mixed_netlist
    )


def test_grower_api_matches_reference_step_by_step(two_cliques):
    reference = LinearOrderingGrower(two_cliques, 0, lambda_skip=0)
    array = ArrayOrderingGrower(two_cliques, 0, lambda_skip=0)
    while True:
        assert array.frontier_size == reference.frontier_size
        for cell in range(two_cliques.num_cells):
            assert array.connection_weight(cell) == reference.connection_weight(cell)
            assert array.cut_delta(cell) == reference.cut_delta(cell)
        step_reference, step_array = reference.step(), array.step()
        assert step_array == step_reference
        if step_reference is None:
            break


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_property_orderings_bit_identical(seed):
    rng = random.Random(seed)
    netlist = _random_netlist(rng)
    seeds = netlist.movable_cells()
    start = seeds[rng.randrange(len(seeds))]
    for exclude_fixed in (True, False):
        for lambda_skip in (0, 3, 20):
            scalar = grow_linear_ordering(
                netlist,
                start,
                netlist.num_cells,
                lambda_skip=lambda_skip,
                exclude_fixed=exclude_fixed,
                backend="python",
            )
            array = grow_linear_ordering(
                netlist,
                start,
                netlist.num_cells,
                lambda_skip=lambda_skip,
                exclude_fixed=exclude_fixed,
                backend="numpy",
            )
            assert array == scalar


# ---------------------------------------------------------------- curves
@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_property_prefix_curves_match_scanner_exactly(seed):
    rng = random.Random(seed)
    netlist = _random_netlist(rng, with_fixed=False)
    ordering = grow_linear_ordering(netlist, 0, netlist.num_cells, backend="python")
    scanner = PrefixScanner(netlist)
    curves = scan_ordering_curves(netlist, ordering)
    for index, cell in enumerate(ordering):
        scanner.add(cell)
        assert curves.stats_at(index) == scanner.stats()
    assert scan_ordering(netlist, ordering, backend="numpy") == scan_ordering(
        netlist, ordering, backend="python"
    )


def test_scan_ordering_rejects_duplicates_in_both_backends(triangle):
    from repro.errors import NetlistError

    for backend in ("python", "numpy"):
        with pytest.raises(NetlistError):
            scan_ordering(triangle, [0, 0, 1], backend=backend)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_property_score_curves_and_rent_within_1e9(seed):
    rng = random.Random(seed)
    netlist = _random_netlist(rng, with_fixed=False)
    ordering = grow_linear_ordering(netlist, 0, netlist.num_cells, backend="python")
    for metric in ("gtl_s", "ngtl_s", "gtl_sd"):
        scalar_scores, scalar_rent = score_curve(
            netlist, ordering, metric, rent_min_prefix=3, backend="python"
        )
        array_scores, array_rent = score_curve(
            netlist, ordering, metric, rent_min_prefix=3, backend="numpy"
        )
        assert abs(array_rent - scalar_rent) <= 1e-9
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
        assert group_stats(netlist, group, backend="numpy") == group_stats(
            netlist, group, backend="python"
        )
        assert group_connected(netlist, group, backend="numpy") == group_connected(
            netlist, group, backend="python"
        )
    assert not group_connected(netlist, [], backend="numpy")
    assert not group_connected(netlist, [], backend="python")


# ---------------------------------------------------------------- pipeline
@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_property_finder_reports_identical_on_planted(seed):
    rng = random.Random(seed)
    netlist, _ = planted_gtl_graph(
        rng.randint(400, 900), [rng.randint(60, 120)], seed=rng.randrange(1000)
    )
    config = FinderConfig(num_seeds=6, seed=rng.randrange(1000), min_gtl_size=20)

    with forced_backend("python"):
        scalar_report = find_tangled_logic(netlist, config)
    with forced_backend("numpy"):
        array_report = find_tangled_logic(netlist, config)
    assert [set(g.cells) for g in scalar_report.gtls] == [
        set(g.cells) for g in array_report.gtls
    ]
    assert abs(scalar_report.rent_exponent - array_report.rent_exponent) <= 1e-9
    for scalar_gtl, array_gtl in zip(scalar_report.gtls, array_report.gtls):
        assert abs(scalar_gtl.score - array_gtl.score) <= 1e-9
        assert scalar_gtl.cut == array_gtl.cut
        assert scalar_gtl.seed == array_gtl.seed


def test_extract_candidate_parity_includes_stats(small_planted):
    netlist, truth = small_planted
    seed = sorted(truth[0])[0]
    ordering = grow_linear_ordering(netlist, seed, 400, backend="python")
    config = FinderConfig(num_seeds=1, min_gtl_size=20)
    scalar = extract_candidate(netlist, ordering, config, backend="python")
    array = extract_candidate(netlist, ordering, config, backend="numpy")
    assert (scalar is None) == (array is None)
    if scalar is not None:
        assert array.cells == scalar.cells
        assert array.stats == scalar.stats
        assert abs(array.score - scalar.score) <= 1e-9


# ---------------------------------------------------------------- caching
def test_score_context_memoized_per_netlist(mixed_netlist):
    first = ScoreContext.for_netlist(mixed_netlist, 0.6, metric="gtl_sd")
    again = ScoreContext.for_netlist(mixed_netlist, 0.6, metric="gtl_sd")
    other_metric = ScoreContext.for_netlist(mixed_netlist, 0.6, metric="ngtl_s")
    other_rent = ScoreContext.for_netlist(mixed_netlist, 0.7, metric="gtl_sd")
    assert again is first
    assert other_metric is not first and other_rent is not first


def test_derived_cache_not_pickled(mixed_netlist):
    import pickle

    ScoreContext.for_netlist(mixed_netlist, 0.6)
    KernelTables.for_netlist(mixed_netlist)
    clone = pickle.loads(pickle.dumps(mixed_netlist))
    assert clone.derived_cache == {}


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
    from repro.service.pool import WorkerPool

    netlist, _ = small_planted
    netlist.arrays  # parent builds the CSR view
    config = FinderConfig(num_seeds=4, seed=11, min_gtl_size=20)
    jobs = [(cell, 1000 + cell) for cell in netlist.movable_cells()[:4]]
    serial = WorkerPool(1).run_seed_jobs(netlist, config, jobs)
    with WorkerPool(2) as pool:
        parallel_first = pool.run_seed_jobs(netlist, config, jobs)
        shipped = pool.stats.context_shipments
        parallel_again = pool.run_seed_jobs(netlist, config, jobs)
    assert parallel_first == serial
    assert parallel_again == serial
    assert shipped >= 1
    # The second run reused the primed workers: its only shipments re-send
    # batches bounced by a worker the first run never reached.
    assert pool.stats.context_shipments - shipped == pool.stats.context_misses
