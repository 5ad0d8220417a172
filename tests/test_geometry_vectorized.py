"""Scalar/vectorized geometry parity and the NetlistArrays flat view.

The vectorized hot paths (batched HPWL/star, RUDY demand, quadratic spring
assembly) must agree with the scalar per-net reference implementations that
stay available through ``REPRO_SCALAR_BACKEND=1`` (``forced_backend`` here).
"""

import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NetlistError
from repro.netlist import NetlistBuilder
from repro.netlist.backend import forced_backend, resolve_backend
from repro.placement.placer import Placement
from repro.placement.quadratic import assemble_quadratic_system
from repro.placement.region import Die
from repro.routing.congestion import build_congestion_map
from repro.routing.wirelength import total_wirelength, wirelength_report


# ---------------------------------------------------------------- fixtures
def _on_both_backends(call):
    """``(numpy result, scalar result)`` of ``call()``."""
    with forced_backend("numpy"):
        array = call()
    with forced_backend("python"):
        scalar = call()
    return array, scalar


def _random_placement(netlist, seed=0, die=None):
    rng = np.random.default_rng(seed)
    die = die or Die(100.0, 100.0)
    x = rng.uniform(0.0, die.width, netlist.num_cells)
    y = rng.uniform(0.0, die.height, netlist.num_cells)
    return Placement(netlist=netlist, die=die, x=x, y=y)


@pytest.fixture
def mixed_degree_netlist():
    """Degrees 1..8 plus a pad: exercises clique, ring and fixed paths."""
    rng = random.Random(13)
    builder = NetlistBuilder()
    cells = builder.add_cells(40)
    pad = builder.add_cell("pad0", fixed=True)
    builder.add_net("pnet", [cells[0], pad])
    builder.add_net("singleton", [cells[1]])
    for i, degree in enumerate([2, 2, 3, 3, 4, 5, 6, 7, 8, 8, 2, 5]):
        builder.add_net(f"n{i}", rng.sample(cells, degree))
    return builder.build()


# ---------------------------------------------------------------- arrays
def test_netlist_arrays_csr_roundtrip(mixed_netlist):
    arrays = mixed_netlist.arrays
    assert arrays.num_cells == mixed_netlist.num_cells
    assert arrays.num_nets == mixed_netlist.num_nets
    for net in range(mixed_netlist.num_nets):
        start, end = arrays.net_ptr[net], arrays.net_ptr[net + 1]
        assert tuple(arrays.net_cells[start:end]) == mixed_netlist.cells_of_net(net)
        assert arrays.net_degrees[net] == mixed_netlist.net_degree(net)
        assert all(arrays.pin_net[start:end] == net)
    for cell in range(mixed_netlist.num_cells):
        start, end = arrays.cell_ptr[cell], arrays.cell_ptr[cell + 1]
        assert tuple(arrays.cell_nets[start:end]) == mixed_netlist.nets_of_cell(cell)
        assert arrays.areas[cell] == mixed_netlist.cell_area(cell)
        assert arrays.pin_counts[cell] == mixed_netlist.cell_pin_count(cell)
        assert arrays.fixed_mask[cell] == mixed_netlist.cell_is_fixed(cell)


def test_netlist_arrays_cached_and_readonly(mixed_netlist):
    arrays = mixed_netlist.arrays
    assert mixed_netlist.arrays is arrays  # built once
    with pytest.raises(ValueError):
        arrays.net_cells[0] = 7


def test_netlist_pickle_roundtrip_keeps_arrays_readonly(mixed_netlist):
    clone = pickle.loads(pickle.dumps(mixed_netlist))
    assert clone == mixed_netlist
    for field in vars(clone.arrays):
        array = getattr(clone.arrays, field)
        np.testing.assert_array_equal(array, getattr(mixed_netlist.arrays, field))
        assert not array.flags.writeable, field


def _gather_general(flat, starts, lengths):
    """The index-building general path, bypassing the contiguity fast path."""
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    offsets = np.zeros(len(lengths), dtype=np.int64)
    np.cumsum(lengths[:-1], out=offsets[1:])
    total = int(lengths.sum())
    return flat[np.arange(total, dtype=np.int64) + np.repeat(starts - offsets, lengths)]


def test_gather_segments_fast_path_agrees_with_general():
    from repro.netlist.arrays import gather_segments

    flat = np.arange(100, dtype=np.int64) * 3
    cases = [
        # Contiguous tilings (fast path): whole run, offset run, zero-length
        # segments interleaved, single segment.
        ([0, 10, 30], [10, 20, 5]),
        ([7, 12, 12, 40], [5, 0, 28, 9]),
        ([25], [60]),
        # Non-contiguous: gaps, overlaps, out-of-order (general path).
        ([0, 50, 20], [10, 10, 10]),
        ([5, 5, 90], [3, 3, 10]),
        ([10, 5], [4, 4]),
    ]
    for starts, lengths in cases:
        starts = np.asarray(starts, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        np.testing.assert_array_equal(
            gather_segments(flat, starts, lengths),
            _gather_general(flat, starts, lengths),
        )
    assert gather_segments(flat, np.array([3]), np.array([0])).size == 0


def test_gather_segments_contiguous_returns_view():
    from repro.netlist.arrays import gather_segments

    flat = np.arange(50, dtype=np.int64)
    out = gather_segments(flat, np.array([5, 15]), np.array([10, 20]))
    assert out.base is flat  # a slice view, not a fancy-index copy
    np.testing.assert_array_equal(out, flat[5:35])


def test_geometry_backend_resolution(monkeypatch):
    monkeypatch.delenv("REPRO_SCALAR_BACKEND", raising=False)
    assert resolve_backend() == "numpy"
    with forced_backend("python"):
        assert resolve_backend() == "python"
    assert resolve_backend() == "numpy"
    monkeypatch.setenv("REPRO_SCALAR_BACKEND", "1")
    assert resolve_backend() == "python"
    monkeypatch.setenv("REPRO_SCALAR_BACKEND", "0")
    assert resolve_backend() == "numpy"
    with pytest.raises(NetlistError), forced_backend("fortran"):
        pass


# ---------------------------------------------------------------- hpwl
def test_hpwl_bit_equal_on_seeded_fixture(small_planted):
    netlist, _ = small_planted
    placement = _random_placement(netlist, seed=17)
    array, scalar = _on_both_backends(placement.hpwl)
    assert array == scalar


def test_hpwl_bit_equal_small(mixed_degree_netlist):
    placement = _random_placement(mixed_degree_netlist, seed=3)
    array, scalar = _on_both_backends(placement.hpwl)
    assert array == scalar


def test_total_wirelength_backends_agree(mixed_degree_netlist):
    placement = _random_placement(mixed_degree_netlist, seed=5)
    for model in ("hpwl", "star"):
        vector, scalar = _on_both_backends(
            lambda: total_wirelength(placement, model)
        )
        assert vector == pytest.approx(scalar, rel=1e-12, abs=1e-9)


def test_total_wirelength_subset_uses_scalar_path(mixed_degree_netlist):
    placement = _random_placement(mixed_degree_netlist, seed=5)
    nets = [2, 3, 4]
    subset = total_wirelength(placement, "hpwl", nets=nets)
    with forced_backend("python"):
        reference = total_wirelength(placement, "hpwl", nets=nets)
    assert subset == reference


# ---------------------------------------------------------------- RUDY
def test_congestion_map_backends_agree(small_planted):
    netlist, _ = small_planted
    placement = _random_placement(netlist, seed=23)
    vector, scalar = _on_both_backends(
        lambda: build_congestion_map(placement, grid=(16, 12))
    )
    np.testing.assert_allclose(
        vector.demand, scalar.demand, rtol=1e-12, atol=1e-9
    )
    assert vector.capacity == pytest.approx(scalar.capacity, rel=1e-12)
    assert vector.net_boxes == scalar.net_boxes


def test_congestion_map_backends_agree_degenerate(mixed_degree_netlist):
    """Stacked pins (degenerate boxes) widen identically in both backends."""
    die = Die(50.0, 50.0)
    x = np.full(mixed_degree_netlist.num_cells, 25.0)
    y = np.full(mixed_degree_netlist.num_cells, 25.0)
    placement = Placement(netlist=mixed_degree_netlist, die=die, x=x, y=y)
    vector, scalar = _on_both_backends(
        lambda: build_congestion_map(placement, grid=(8, 8), capacity=1.0)
    )
    np.testing.assert_allclose(vector.demand, scalar.demand, rtol=1e-12, atol=1e-12)
    assert vector.net_boxes == scalar.net_boxes
    assert vector.demand.sum() > 0


def test_congestion_occupancy_is_cached(small_planted):
    netlist, _ = small_planted
    placement = _random_placement(netlist, seed=29)
    cmap = build_congestion_map(placement, grid=(8, 8))
    occupancy = cmap.occupancy
    assert cmap.occupancy is occupancy  # computed once, reused
    np.testing.assert_allclose(occupancy, cmap.demand / cmap.capacity)


# ---------------------------------------------------------------- assembly
def test_quadratic_assembly_backends_agree(mixed_degree_netlist):
    pad = mixed_degree_netlist.cell_index("pad0")
    pads = {pad: (0.0, 25.0)}
    for clique_limit in (3, 5):
        vector, scalar = _on_both_backends(
            lambda: assemble_quadratic_system(
                mixed_degree_netlist, pads, clique_limit=clique_limit
            )
        )
        lap_s, bx_s, by_s, mov_s = scalar
        lap_v, bx_v, by_v, mov_v = vector
        np.testing.assert_array_equal(mov_s, mov_v)
        difference = (lap_s - lap_v).tocoo()
        max_delta = np.abs(difference.data).max() if difference.nnz else 0.0
        assert max_delta <= 1e-9
        np.testing.assert_allclose(bx_v, bx_s, rtol=1e-12, atol=1e-9)
        np.testing.assert_allclose(by_v, by_s, rtol=1e-12, atol=1e-9)


def test_quadratic_assembly_backends_agree_planted(small_planted):
    netlist, _ = small_planted
    vector, scalar = _on_both_backends(
        lambda: assemble_quadratic_system(netlist, {})
    )
    lap_s, bx_s, by_s, _ = scalar
    lap_v, bx_v, by_v, _ = vector
    difference = (lap_s - lap_v).tocoo()
    max_delta = np.abs(difference.data).max() if difference.nnz else 0.0
    assert max_delta <= 1e-9
    np.testing.assert_allclose(bx_v, bx_s, atol=1e-9)
    np.testing.assert_allclose(by_v, by_s, atol=1e-9)


# ---------------------------------------------------------------- properties
@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_property_wirelength_ladder_both_backends(seed):
    """HPWL <= RMST and star >= HPWL on random placements, both backends."""
    rng = random.Random(seed)
    builder = NetlistBuilder()
    num_cells = rng.randint(3, 20)
    cells = builder.add_cells(num_cells)
    for i in range(rng.randint(2, 12)):
        degree = rng.randint(2, min(7, num_cells))
        builder.add_net(f"n{i}", rng.sample(cells, degree))
    netlist = builder.build()
    placement = _random_placement(netlist, seed=seed)

    reports = dict(
        zip(("numpy", "python"), _on_both_backends(lambda: wirelength_report(placement)))
    )
    for backend, report in reports.items():
        assert report["hpwl"] <= report["rmst"] + 1e-9, backend
        assert report["star"] >= report["hpwl"] - 1e-9, backend
    for model in ("hpwl", "star", "clique", "rmst"):
        assert reports["numpy"][model] == pytest.approx(
            reports["python"][model], rel=1e-12, abs=1e-9
        )
    # HPWL is bit-identical across backends, not just close.
    array, scalar = _on_both_backends(placement.hpwl)
    assert array == scalar
