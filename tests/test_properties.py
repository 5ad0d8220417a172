"""Cross-cutting property-based tests on core invariants."""

import random

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.finder.candidate import CandidateGTL
from repro.finder.prune import prune_overlapping
from repro.finder.refine import genetic_family
from repro.finder.result import FinderReport, GTL
from repro.finder.config import FinderConfig
from repro.netlist.builder import NetlistBuilder
from repro.netlist.ops import GroupStats, cut_size
from repro.placement.region import Die
from repro.placement.spreading import spread_cells


# ---------------------------------------------------------------- prune
def _candidate(cells, score, seed=0):
    return CandidateGTL(
        cells=frozenset(cells),
        score=score,
        stats=GroupStats(len(cells), 1, len(cells), 0, 1.0),
        rent_exponent=0.6,
        seed=seed,
    )


@given(
    st.lists(
        st.tuples(
            st.frozensets(st.integers(0, 30), min_size=1, max_size=8),
            st.floats(0.01, 2.0, allow_nan=False),
        ),
        max_size=20,
    )
)
def test_property_prune_output_disjoint_and_greedy(items):
    candidates = [_candidate(cells, score, seed=i) for i, (cells, score) in enumerate(items)]
    kept = prune_overlapping(candidates)
    # Disjointness.
    seen = set()
    for candidate in kept:
        assert seen.isdisjoint(candidate.cells)
        seen.update(candidate.cells)
    # Scores ascend.
    scores = [k.score for k in kept]
    assert scores == sorted(scores)
    # Maximality: every rejected candidate overlaps something kept that
    # scores no worse.
    kept_sets = [(k.score, k.cells) for k in kept]
    for candidate in candidates:
        if any(candidate.cells == cells for _, cells in kept_sets):
            continue
        assert any(
            score <= candidate.score and (cells & candidate.cells)
            for score, cells in kept_sets
        )


@given(
    st.lists(
        st.frozensets(st.integers(0, 15), min_size=1, max_size=6),
        min_size=1,
        max_size=5,
    )
)
def test_property_genetic_family_closure(sets):
    family = genetic_family(list(sets))
    universe = frozenset().union(*sets)
    for member in family:
        assert member  # non-empty
        assert member <= universe  # no invented cells
    assert len(set(family)) == len(family)  # no duplicates
    for original in sets:
        assert original in family


# ---------------------------------------------------------------- cut
@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_property_cut_complement_symmetry(seed):
    """T(C) == T(V - C) for any group: the cut is a boundary property."""
    rng = random.Random(seed)
    builder = NetlistBuilder()
    num_cells = rng.randint(4, 24)
    cells = builder.add_cells(num_cells)
    for i in range(rng.randint(3, 40)):
        builder.add_net(f"n{i}", rng.sample(cells, rng.randint(2, min(5, num_cells))))
    netlist = builder.build()
    group = set(rng.sample(cells, rng.randint(1, num_cells - 1)))
    complement = set(cells) - group
    assert cut_size(netlist, group) == cut_size(netlist, complement)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_property_cut_subadditive_under_union(seed):
    """T(A u B) <= T(A) + T(B) for disjoint groups."""
    rng = random.Random(seed)
    builder = NetlistBuilder()
    num_cells = rng.randint(6, 24)
    cells = builder.add_cells(num_cells)
    for i in range(rng.randint(3, 40)):
        builder.add_net(f"n{i}", rng.sample(cells, rng.randint(2, min(4, num_cells))))
    netlist = builder.build()
    shuffled = list(cells)
    rng.shuffle(shuffled)
    k = rng.randint(1, num_cells - 2)
    j = rng.randint(k + 1, num_cells - 1)
    group_a, group_b = set(shuffled[:k]), set(shuffled[k:j])
    assert cut_size(netlist, group_a | group_b) <= cut_size(
        netlist, group_a
    ) + cut_size(netlist, group_b)


# ---------------------------------------------------------------- spreading
@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_property_spreading_preserves_axis_order_weakly(seed):
    """Spreading is a monotone transform: extreme cells stay extreme."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 60))
    x = rng.uniform(0, 100, n)
    y = rng.uniform(0, 100, n)
    die = Die(100, 100)
    sx, sy = spread_cells(x, y, np.ones(n), die, leaf_cells=1)
    assert np.all((0 <= sx) & (sx <= 100))
    assert np.all((0 <= sy) & (sy <= 100))
    # The leftmost/rightmost halves keep their side relationships on average.
    left = x <= np.median(x)
    assert sx[left].mean() <= sx[~left].mean() + 1e-9


# ---------------------------------------------------------------- results
def test_finder_report_summary_empty():
    report = FinderReport(
        gtls=(),
        config=FinderConfig(),
        rent_exponent=0.6,
        num_orderings=4,
        num_candidates=0,
        runtime_seconds=0.1,
    )
    assert "no GTLs found" in report.summary()
    assert report.num_gtls == 0
    assert report.top(3) == ()


def test_finder_report_summary_rows():
    gtl = GTL(
        cells=frozenset({1, 2, 3}),
        size=3,
        cut=2,
        ngtl_score=0.5,
        gtl_sd_score=0.25,
        score=0.25,
        seed=7,
        rent_exponent=0.6,
    )
    report = FinderReport(
        gtls=(gtl,),
        config=FinderConfig(),
        rent_exponent=0.6,
        num_orderings=4,
        num_candidates=1,
        runtime_seconds=0.5,
    )
    text = report.summary()
    assert "p=0.600" in text
    assert "0.25" in text
    assert 2 in gtl  # __contains__
