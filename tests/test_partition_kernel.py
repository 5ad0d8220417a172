"""Parity of the array FM partition kernel against the scalar reference.

The contract (see :mod:`repro.netlist.backend`): both backends run the
exact same FM — identical move sequences, so identical sides, cuts and
pass counts bit for bit — on any subset, tolerance and seed; recursive
bisection produces the same leaves in the same order; and
``PartitionStage`` fingerprints are byte-identical across backends so
caches are shared.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.flow.flow import Flow
from repro.flow.stages import PartitionConfig, PartitionStage
from repro.netlist.backend import forced_backend
from repro.netlist.builder import NetlistBuilder
from repro.partition import (
    ArrayFMPartitioner,
    FMPartitioner,
    SubsetCSR,
    bisection_ordering,
    estimate_rent_exponent_bisection,
    fm_bisect,
    make_partitioner,
    recursive_bisection,
)
from repro.service.store import ResultStore


def _random_netlist(rng, max_cells=36):
    """Random hypergraph with mixed cell areas (exercises balance floats)."""
    builder = NetlistBuilder()
    num_cells = rng.randint(4, max_cells)
    cells = [
        builder.add_cell(f"c{i}", area=rng.choice([0.5, 1.0, 2.0, 7.5]))
        for i in range(num_cells)
    ]
    for i in range(rng.randint(3, 3 * num_cells)):
        builder.add_net(f"n{i}", rng.sample(cells, rng.randint(2, min(6, num_cells))))
    return builder.build()


def _on_both_backends(call):
    """``(numpy result, scalar result)`` of ``call()``."""
    with forced_backend("numpy"):
        array = call()
    with forced_backend("python"):
        scalar = call()
    return array, scalar


def _assert_identical(scalar, array):
    assert scalar.sides == array.sides
    assert scalar.cut == array.cut
    assert scalar.passes == array.passes


# ---------------------------------------------------------------- dispatch
def test_make_partitioner_dispatches_on_backend(two_cliques):
    with forced_backend("python"):
        assert isinstance(make_partitioner(two_cliques), FMPartitioner)
    with forced_backend("numpy"):
        assert isinstance(make_partitioner(two_cliques), ArrayFMPartitioner)


def test_array_partitioner_error_parity(triangle, two_cliques):
    with pytest.raises(ReproError):
        ArrayFMPartitioner(triangle, balance_tolerance=1.5)
    with pytest.raises(ReproError):
        ArrayFMPartitioner(triangle, cells=[0])
    with pytest.raises(ReproError):
        ArrayFMPartitioner(None)  # neither netlist nor subset
    partitioner = ArrayFMPartitioner(two_cliques, rng=0)
    with pytest.raises(ReproError):
        partitioner.run(initial={0: 0})


def test_array_partitioner_empty_initial_means_random_start(two_cliques):
    """Parity: the reference treats ``initial={}`` by truthiness (random
    start), not as an explicit empty cover."""
    scalar = FMPartitioner(two_cliques, rng=4).run(initial={})
    array = ArrayFMPartitioner(two_cliques, rng=4).run(initial={})
    _assert_identical(scalar, array)


def test_array_partitioner_passes_extra_initial_keys_through(two_cliques):
    """The reference passes unknown initial keys through untouched."""
    initial = {c: c % 2 for c in range(8)}
    initial[99] = 1  # not a cell of the subset
    scalar = FMPartitioner(two_cliques, cells=range(8), rng=0).run(initial=dict(initial))
    array = ArrayFMPartitioner(two_cliques, cells=range(8), rng=0).run(
        initial=dict(initial)
    )
    _assert_identical(scalar, array)
    assert array.sides[99] == 1


# ---------------------------------------------------------------- fm parity
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_property_fm_bit_identical(seed):
    rng = random.Random(seed)
    netlist = _random_netlist(rng)
    tolerance = rng.choice([0.0, 0.01, 0.1, 0.3])
    cells = None
    if rng.random() < 0.5:
        cells = rng.sample(range(netlist.num_cells), rng.randint(2, netlist.num_cells))
    array, scalar = _on_both_backends(
        lambda: fm_bisect(netlist, cells=cells, balance_tolerance=tolerance, rng=seed)
    )
    _assert_identical(scalar, array)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_property_fm_bit_identical_from_explicit_start(seed):
    rng = random.Random(seed)
    netlist = _random_netlist(rng)
    initial = {c: rng.randint(0, 1) for c in range(netlist.num_cells)}
    scalar = FMPartitioner(netlist, rng=seed).run(initial=dict(initial))
    array = ArrayFMPartitioner(netlist, rng=seed).run(initial=dict(initial))
    _assert_identical(scalar, array)


def test_fm_parity_on_planted_design(small_planted):
    netlist, _ = small_planted
    array, scalar = _on_both_backends(lambda: fm_bisect(netlist, rng=3))
    _assert_identical(scalar, array)


# ---------------------------------------------------------------- subsets
def test_subset_csr_restrict_matches_fresh_restriction(small_planted):
    """Restricting a SubsetCSR equals restricting the netlist from scratch —
    the invariant that lets recursive bisection reuse one structure down
    the tree."""
    netlist, _ = small_planted
    rng = random.Random(9)
    parent_cells = sorted(rng.sample(range(netlist.num_cells), 600))
    parent = SubsetCSR.from_netlist(netlist, parent_cells)
    child_cells = sorted(rng.sample(parent_cells, 250))
    derived = parent.restrict(parent.member_mask(child_cells))
    fresh = SubsetCSR.from_netlist(netlist, child_cells)
    assert np.array_equal(derived.cells, fresh.cells)
    assert np.array_equal(derived.areas, fresh.areas)
    # Net numbering is compaction-order dependent but both restrict in
    # ascending net order, so the CSRs must match exactly.
    assert np.array_equal(derived.net_ptr, fresh.net_ptr)
    assert np.array_equal(derived.net_cells, fresh.net_cells)


def test_subset_csr_member_mask_rejects_non_members(small_planted):
    netlist, _ = small_planted
    subset = SubsetCSR.from_netlist(netlist, [0, 2, 4])
    assert list(subset.member_mask([0, 4])) == [True, False, True]
    with pytest.raises(ReproError, match="not in subset"):
        subset.member_mask([1])
    with pytest.raises(ReproError, match="not in subset"):
        subset.member_mask([netlist.num_cells + 7])


def test_subset_csr_drops_single_pin_restrictions(mixed_netlist):
    subset = SubsetCSR.from_netlist(mixed_netlist, [0, 3])
    # Only net "n2" (a, pad0) keeps two pins inside {a, pad0}.
    assert subset.num_nets == 1
    assert subset.num_cells == 2


# ---------------------------------------------------------------- bisection
@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_property_recursive_bisection_leaf_parity(seed):
    rng = random.Random(seed)
    netlist = _random_netlist(rng, max_cells=90)
    min_block = rng.choice([4, 6, 10])
    array, scalar = _on_both_backends(
        lambda: recursive_bisection(netlist, min_block=min_block, rng=seed)
    )
    assert scalar == array


def test_bisection_ordering_parity(small_planted):
    netlist, _ = small_planted
    cells = list(range(500))
    array, scalar = _on_both_backends(
        lambda: bisection_ordering(netlist, cells=cells, min_block=16, rng=2)
    )
    assert scalar == array


def test_rent_estimate_parity(small_planted):
    netlist, _ = small_planted
    array, scalar = _on_both_backends(
        lambda: estimate_rent_exponent_bisection(
            netlist, cells=range(600), min_block=24, rng=5
        )
    )
    # Identical (|C|, T(C)) samples make the fit bit-identical, not merely
    # close.
    assert scalar == array


# ---------------------------------------------------------------- flow
def test_partition_stage_cache_is_shared_across_backends(
    small_planted, tmp_path, monkeypatch
):
    netlist, _ = small_planted
    config = PartitionConfig(seed=7)

    monkeypatch.setenv("REPRO_SCALAR_BACKEND", "0")
    with ResultStore(str(tmp_path)) as store:
        computed = Flow([PartitionStage(config)], name="part").run(netlist, store=store)
    assert not computed["partition"].cached
    assert computed["partition"].metadata["kernel_backend"] == "numpy"

    # Same design + config under the scalar backend: identical fingerprint,
    # served from the array-computed cache row, identical artifact.
    monkeypatch.setenv("REPRO_SCALAR_BACKEND", "1")
    with ResultStore(str(tmp_path)) as store:
        cached = Flow([PartitionStage(config)], name="part").run(netlist, store=store)
    assert cached["partition"].cached
    assert cached["partition"].fingerprint == computed["partition"].fingerprint
    assert cached["partition"].metadata["kernel_backend"] == "python"
    first = computed.artifact("partition")
    second = cached.artifact("partition")
    assert first.sides == second.sides
    assert (first.cut, first.passes) == (second.cut, second.passes)

    # And a scalar-computed run produces the same fingerprint and artifact
    # from scratch.
    with ResultStore(str(tmp_path / "fresh")) as store:
        recomputed = Flow([PartitionStage(config)], name="part").run(
            netlist, store=store
        )
    assert not recomputed["partition"].cached
    assert recomputed["partition"].fingerprint == computed["partition"].fingerprint
    third = recomputed.artifact("partition")
    assert third.sides == first.sides and third.cut == first.cut
