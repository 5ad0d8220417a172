"""Tests for all cluster metrics (baselines + GTL scores)."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MetricError
from repro.metrics import (
    ScoreContext,
    absorption,
    degree_separation,
    density_aware_gtl_score,
    estimate_group_rent_exponent,
    estimate_rent_exponent_from_prefixes,
    fit_rent_exponent,
    gtl_score,
    net_cut,
    normalized_gtl_score,
    ratio_cut,
    rent_metric,
    scaled_cost,
)
from repro.finder.candidate import scan_ordering
from repro.metrics.rent import rent_exponent_from_stats
from repro.netlist.builder import NetlistBuilder
from repro.netlist.ops import GroupStats, group_stats


# ---------------------------------------------------------------- cut
def test_net_cut(two_cliques):
    assert net_cut(two_cliques, range(4)) == 1
    assert net_cut(two_cliques, range(8)) == 0


def test_absorption_full_netlist(two_cliques):
    # Every net fully absorbed -> absorption equals net count.
    assert absorption(two_cliques, range(8)) == pytest.approx(13.0)


def test_absorption_partial(star_netlist):
    # 3 of 5 pins inside the single 5-pin net: (3-1)/(5-1) = 0.5.
    assert absorption(star_netlist, [0, 1, 2]) == pytest.approx(0.5)


def test_absorption_grows_with_size(two_cliques):
    small = absorption(two_cliques, range(3))
    large = absorption(two_cliques, range(6))
    assert large > small  # the bias the paper criticizes


def test_absorption_empty_raises(triangle):
    with pytest.raises(MetricError):
        absorption(triangle, [])


# ---------------------------------------------------------------- ratio cut
def test_ratio_cut(two_cliques):
    assert ratio_cut(two_cliques, range(4)) == pytest.approx(0.25)


def test_ratio_cut_empty_raises(triangle):
    with pytest.raises(MetricError):
        ratio_cut(triangle, [])


def test_scaled_cost(two_cliques):
    assert scaled_cost(two_cliques, range(4)) == pytest.approx(1 / 16)


def test_scaled_cost_whole_netlist_raises(triangle):
    with pytest.raises(MetricError):
        scaled_cost(triangle, range(3))


def test_rent_metric(two_cliques):
    assert rent_metric(two_cliques, range(4)) == pytest.approx(
        math.log(1) / math.log(4)
    )


def test_rent_metric_zero_cut_is_neg_inf(two_cliques):
    assert rent_metric(two_cliques, range(8)) == float("-inf")


def test_rent_metric_small_group_raises(triangle):
    with pytest.raises(MetricError):
        rent_metric(triangle, [0])


# ---------------------------------------------------------------- rent
def test_group_rent_exponent_matches_formula(two_cliques):
    stats = group_stats(two_cliques, range(4))
    expected = (math.log(stats.cut) - math.log(stats.avg_pins)) / math.log(4)
    assert estimate_group_rent_exponent(two_cliques, range(4)) == pytest.approx(
        expected
    )


def test_rent_exponent_from_stats_degenerate():
    with pytest.raises(MetricError):
        rent_exponent_from_stats(GroupStats(1, 1, 1, 0, 1.0))
    with pytest.raises(MetricError):
        rent_exponent_from_stats(GroupStats(4, 0, 8, 2, 2.0))
    with pytest.raises(MetricError):
        rent_exponent_from_stats(GroupStats(4, 2, 0, 2, 0.0))


def test_estimate_from_prefixes_clamps_and_averages():
    stats = [
        GroupStats(size=16, cut=8, pins=48, internal_nets=4, avg_pins=3.0),
        GroupStats(size=64, cut=20, pins=192, internal_nets=30, avg_pins=3.0),
    ]
    value = estimate_rent_exponent_from_prefixes(stats, min_size=8)
    assert 0.1 <= value <= 1.0


def test_estimate_from_prefixes_empty_defaults():
    assert estimate_rent_exponent_from_prefixes([]) == pytest.approx(0.6)


def test_estimate_from_prefixes_skips_small():
    tiny = [GroupStats(size=2, cut=3, pins=6, internal_nets=0, avg_pins=3.0)]
    assert estimate_rent_exponent_from_prefixes(tiny, min_size=8) == pytest.approx(0.6)


def test_fit_rent_exponent_recovers_synthetic_law():
    sizes = [2**k for k in range(3, 12)]
    cuts = [round(3.0 * s**0.65) for s in sizes]
    p, a = fit_rent_exponent(sizes, cuts)
    assert p == pytest.approx(0.65, abs=0.02)
    assert a == pytest.approx(3.0, rel=0.15)


def test_fit_rent_exponent_needs_two_points():
    with pytest.raises(MetricError):
        fit_rent_exponent([10], [5])
    with pytest.raises(MetricError):
        fit_rent_exponent([10, 10], [5, 5])


def test_scan_prefix_stats(two_cliques):
    stats = scan_ordering(two_cliques, list(range(8)))
    assert len(stats) == 8
    assert stats[-1].cut == 0
    for k, prefix in enumerate(stats, start=1):
        assert prefix == group_stats(two_cliques, range(k))


# ---------------------------------------------------------------- DS metric
def test_degree_separation_clique(two_cliques):
    # Inside one clique: degree avg = (3+3+3+4)/4 = 3.25, separation 1.
    value = degree_separation(two_cliques, range(4))
    assert value == pytest.approx(3.25)


def test_degree_separation_path():
    builder = NetlistBuilder()
    cells = builder.add_cells(4)
    for a, b in zip(cells, cells[1:]):
        builder.add_net(None, [a, b])
    netlist = builder.build()
    value = degree_separation(netlist, cells)
    # degree avg = (1+2+2+1)/4 = 1.5; separation = avg pairwise dist
    distances = [1, 2, 3, 1, 2, 1]
    separation = sum(distances) * 2 / 12
    assert value == pytest.approx(1.5 / separation)


def test_degree_separation_disconnected_is_zero():
    builder = NetlistBuilder()
    a, b, c, d = builder.add_cells(4)
    builder.add_net("n1", [a, b])
    builder.add_net("n2", [c, d])
    assert degree_separation(builder.build(), [a, b, c, d]) == 0.0


def test_degree_separation_small_group_raises(triangle):
    with pytest.raises(MetricError):
        degree_separation(triangle, [0])


def test_degree_separation_sampled_close_to_exact(small_planted):
    netlist, truth = small_planted
    members = sorted(truth[0])[:120]
    exact = degree_separation(netlist, members, max_sources=len(members))
    sampled = degree_separation(netlist, members, max_sources=40, rng=1)
    assert sampled == pytest.approx(exact, rel=0.25)


# ---------------------------------------------------------------- GTL scores
def test_gtl_score_formula(two_cliques):
    assert gtl_score(two_cliques, range(4), 0.5) == pytest.approx(1 / 4**0.5)


def test_normalized_gtl_score_formula(two_cliques):
    a_g = two_cliques.average_pins_per_cell
    expected = 1 / (a_g * 4**0.5)
    assert normalized_gtl_score(two_cliques, range(4), 0.5) == pytest.approx(expected)


def test_density_aware_score_formula(two_cliques):
    stats = group_stats(two_cliques, range(4))
    a_g = two_cliques.average_pins_per_cell
    exponent = 0.5 * stats.avg_pins / a_g
    expected = stats.cut / (a_g * stats.size**exponent)
    assert density_aware_gtl_score(two_cliques, range(4), 0.5) == pytest.approx(
        expected
    )


def test_gtl_score_bad_exponent(two_cliques):
    with pytest.raises(MetricError):
        gtl_score(two_cliques, range(4), 0.0)
    with pytest.raises(MetricError):
        gtl_score(two_cliques, range(4), 2.5)


def test_score_context_validation():
    with pytest.raises(MetricError):
        ScoreContext(rent_exponent=0.6, avg_pins_per_cell=3.0, metric="bogus")
    with pytest.raises(MetricError):
        ScoreContext(rent_exponent=-1.0, avg_pins_per_cell=3.0)
    with pytest.raises(MetricError):
        ScoreContext(rent_exponent=0.6, avg_pins_per_cell=0.0)


def test_score_context_matches_functions(two_cliques):
    stats = group_stats(two_cliques, range(4))
    for metric, function in (
        ("gtl_s", gtl_score),
        ("ngtl_s", normalized_gtl_score),
        ("gtl_sd", density_aware_gtl_score),
    ):
        context = ScoreContext.for_netlist(two_cliques, 0.6, metric=metric)
        assert context.score(stats) == pytest.approx(
            function(two_cliques, range(4), 0.6)
        )


def test_score_context_score_all(two_cliques):
    context = ScoreContext.for_netlist(two_cliques, 0.6)
    stats = [group_stats(two_cliques, range(k)) for k in (2, 4, 6)]
    scores = [context.score(s) for s in stats]
    assert len(scores) == 3
    for k, score in zip((2, 4, 6), scores):
        assert score == pytest.approx(normalized_gtl_score(two_cliques, range(k), 0.6))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_property_scores_scale_invariance(seed):
    """nGTL-S is GTL-S / A_G; GTL-SD equals nGTL-S for average density."""
    rng = random.Random(seed)
    builder = NetlistBuilder()
    cells = builder.add_cells(rng.randint(6, 30))
    for i in range(rng.randint(5, 40)):
        builder.add_net(f"n{i}", rng.sample(cells, rng.randint(2, 4)))
    netlist = builder.build()
    group = rng.sample(cells, rng.randint(2, len(cells) - 1))
    p = rng.uniform(0.3, 0.9)
    gs = gtl_score(netlist, group, p)
    ngs = normalized_gtl_score(netlist, group, p)
    assert ngs == pytest.approx(gs / netlist.average_pins_per_cell)


def test_planted_gtl_scores_below_one(small_planted):
    """The planted block must score far below an average group."""
    netlist, truth = small_planted
    block = truth[0]
    score = normalized_gtl_score(netlist, block, 0.7)
    assert score < 0.3
    sd = density_aware_gtl_score(netlist, block, 0.7)
    assert sd < score  # density awareness sharpens the minimum


def test_random_group_scores_near_one(small_planted):
    netlist, truth = small_planted
    rng = random.Random(0)
    outside = [c for c in range(netlist.num_cells) if c not in truth[0]]
    group = rng.sample(outside, 200)
    score = normalized_gtl_score(netlist, group, 0.9)
    assert 0.5 < score < 2.5
