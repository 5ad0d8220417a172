"""Tests for seeding strategies, wirelength models and perturbation."""

import numpy as np
import pytest

from repro.errors import FinderError, GenerationError, ReproError
from repro.finder import FinderConfig, find_tangled_logic
from repro.finder.seeding import (
    STRATEGIES,
    clustering_seeds,
    draw_seeds,
    pin_density_seeds,
    stratified_seeds,
    uniform_seeds,
)
from repro.generators.perturb import rewire_pins
from repro.netlist.builder import NetlistBuilder
from repro.netlist.validate import validate_netlist
from repro.placement import Die
from repro.placement.placer import Placement
from repro.routing.wirelength import (
    clique_net,
    hpwl_net,
    rmst_net,
    star_net,
    total_wirelength,
    wirelength_report,
)


# ---------------------------------------------------------------- seeding
def test_draw_seeds_all_strategies(small_planted):
    netlist, _ = small_planted
    eligible = netlist.movable_cells()
    for strategy in STRATEGIES:
        seeds = draw_seeds(netlist, eligible, 12, strategy=strategy, rng=1)
        assert len(seeds) == 12
        assert all(s in set(eligible) for s in seeds)


def test_draw_seeds_validation(small_planted):
    netlist, _ = small_planted
    with pytest.raises(FinderError):
        draw_seeds(netlist, netlist.movable_cells(), 4, strategy="bogus")
    with pytest.raises(FinderError):
        draw_seeds(netlist, [], 4)
    with pytest.raises(FinderError):
        draw_seeds(netlist, netlist.movable_cells(), 0)


def test_uniform_seeds_distinct_when_possible(small_planted):
    netlist, _ = small_planted
    seeds = uniform_seeds(netlist, list(range(100)), 50, rng=2)
    assert len(set(seeds)) == 50


def test_pin_density_bias(small_planted):
    """Pin-dense planted cells are drawn far above their population share."""
    netlist, truth = small_planted
    block = truth[0]
    seeds = pin_density_seeds(netlist, netlist.movable_cells(), 400, rng=3)
    in_block = sum(1 for s in seeds if s in block)
    share = len(block) / netlist.num_cells
    assert in_block / 400 > 1.5 * share


def test_stratified_covers_strata(small_planted):
    netlist, _ = small_planted
    eligible = list(range(netlist.num_cells))
    seeds = stratified_seeds(netlist, eligible, 10, rng=4)
    assert len(seeds) == 10
    strata = {s * 10 // netlist.num_cells for s in seeds}
    assert len(strata) >= 8  # nearly one seed per stratum


def test_clustering_seeds_returns_valid(small_planted):
    netlist, _ = small_planted
    seeds = clustering_seeds(netlist, netlist.movable_cells()[:500], 8, rng=5)
    assert len(seeds) == 8


def test_finder_with_strategy_finds_block(small_planted):
    netlist, truth = small_planted
    config = FinderConfig(num_seeds=10, seed=6, seed_strategy="pin_density")
    report = find_tangled_logic(netlist, config)
    assert any(g.cells == truth[0] for g in report.gtls)


def test_config_rejects_bad_strategy():
    with pytest.raises(FinderError):
        FinderConfig(seed_strategy="nope")


# ---------------------------------------------------------------- wirelength
@pytest.fixture
def two_pin_placement():
    builder = NetlistBuilder()
    a, b = builder.add_cells(2)
    builder.add_net("n", [a, b])
    netlist = builder.build()
    return Placement(
        netlist=netlist,
        die=Die(10, 10),
        x=np.array([1.0, 4.0]),
        y=np.array([2.0, 6.0]),
    )


def test_two_pin_models_agree(two_pin_placement):
    # For 2 pins all models equal the Manhattan distance 3 + 4 = 7.
    assert hpwl_net(two_pin_placement, 0) == pytest.approx(7.0)
    assert rmst_net(two_pin_placement, 0) == pytest.approx(7.0)
    assert clique_net(two_pin_placement, 0) == pytest.approx(7.0)
    assert star_net(two_pin_placement, 0) == pytest.approx(7.0)


@pytest.fixture
def square_net_placement():
    builder = NetlistBuilder()
    cells = builder.add_cells(4)
    builder.add_net("sq", cells)
    netlist = builder.build()
    return Placement(
        netlist=netlist,
        die=Die(10, 10),
        x=np.array([0.0, 2.0, 0.0, 2.0]),
        y=np.array([0.0, 0.0, 2.0, 2.0]),
    )


def test_square_net_model_ladder(square_net_placement):
    """HPWL <= RMST for multi-pin nets; known values on a unit square."""
    hp = hpwl_net(square_net_placement, 0)
    tree = rmst_net(square_net_placement, 0)
    assert hp == pytest.approx(4.0)
    assert tree == pytest.approx(6.0)  # three sides of the square
    assert hp <= tree


def test_total_wirelength_and_report(square_net_placement):
    report = wirelength_report(square_net_placement)
    assert set(report) == {"hpwl", "star", "clique", "rmst"}
    assert report["hpwl"] == pytest.approx(4.0)
    assert total_wirelength(square_net_placement, "rmst") == pytest.approx(6.0)


def test_total_wirelength_matches_placement_hpwl(small_planted):
    netlist, _ = small_planted
    rng = np.random.default_rng(0)
    placement = Placement(
        netlist=netlist,
        die=Die(100, 100),
        x=rng.uniform(0, 100, netlist.num_cells),
        y=rng.uniform(0, 100, netlist.num_cells),
    )
    assert total_wirelength(placement, "hpwl") == pytest.approx(placement.hpwl())


def test_rmst_upper_bounds_hpwl_randomized(small_planted):
    netlist, _ = small_planted
    rng = np.random.default_rng(1)
    placement = Placement(
        netlist=netlist,
        die=Die(100, 100),
        x=rng.uniform(0, 100, netlist.num_cells),
        y=rng.uniform(0, 100, netlist.num_cells),
    )
    for net in range(0, 50):
        assert rmst_net(placement, net) >= hpwl_net(placement, net) - 1e-9


def test_unknown_model_rejected(two_pin_placement):
    with pytest.raises(ReproError):
        total_wirelength(two_pin_placement, "steiner-exact")


# ---------------------------------------------------------------- perturb
def test_rewire_zero_noise_is_structural_noop(small_planted):
    netlist, _ = small_planted
    same = rewire_pins(netlist, 0.0, rng=1)
    assert same.num_cells == netlist.num_cells
    assert same.num_nets == netlist.num_nets
    for net in range(netlist.num_nets):
        assert set(same.cells_of_net(net)) == set(netlist.cells_of_net(net))


def test_rewire_changes_some_pins(small_planted):
    netlist, _ = small_planted
    noisy = rewire_pins(netlist, 0.1, rng=2)
    validate_netlist(noisy)
    changed = sum(
        1
        for net in range(min(netlist.num_nets, noisy.num_nets))
        if set(noisy.cells_of_net(net)) != set(netlist.cells_of_net(net))
    )
    assert changed > 0
    assert noisy.num_cells == netlist.num_cells


def test_rewire_validation(small_planted):
    netlist, _ = small_planted
    with pytest.raises(GenerationError):
        rewire_pins(netlist, 1.5)


def test_rewire_full_noise_still_valid(small_planted):
    netlist, _ = small_planted
    scrambled = rewire_pins(netlist, 1.0, rng=3)
    validate_netlist(scrambled)
