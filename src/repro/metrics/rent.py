"""Rent-exponent estimation.

Rent's rule relates the external pin/terminal count of a logic block to its
size: ``T = A * |C|^p`` with ``p`` the Rent exponent.  The paper (Phase II)
estimates ``p`` of a netlist by averaging, over the groups produced by a
linear ordering, the per-group estimate::

    p(C) = (ln T(C) - ln A_C) / ln |C|

where ``A_C`` is the average pin count per cell inside C.  We implement that
estimator plus a least-squares fit over the prefix curve, which is the
textbook way of measuring Rent exponents and serves as a cross-check.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import MetricError
from repro.netlist.hypergraph import Netlist
from repro.netlist.ops import GroupStats, PrefixCurves, group_stats


def estimate_group_rent_exponent(netlist: Netlist, group: Iterable[int]) -> float:
    """Per-group Rent exponent ``(ln T(C) - ln A_C) / ln |C|``.

    Raises :class:`MetricError` for groups where the formula degenerates
    (fewer than two cells, zero cut, or zero pins).
    """
    stats = group_stats(netlist, group)
    return rent_exponent_from_stats(stats)


def rent_exponent_from_stats(stats: GroupStats) -> float:
    """Rent exponent of one group from its precomputed statistics."""
    if stats.size < 2:
        raise MetricError("Rent exponent needs at least two cells")
    if stats.cut <= 0:
        raise MetricError("Rent exponent undefined for zero cut")
    if stats.avg_pins <= 0:
        raise MetricError("Rent exponent undefined for zero pins")
    return (math.log(stats.cut) - math.log(stats.avg_pins)) / math.log(stats.size)


def estimate_rent_exponent_from_prefixes(
    prefix_stats: Sequence[GroupStats],
    min_size: int = 8,
    clamp: Tuple[float, float] = (0.1, 1.0),
    fallback: Optional[float] = 0.6,
) -> Optional[float]:
    """Average per-prefix Rent exponents, the paper's Phase II estimator.

    Args:
        prefix_stats: statistics of every ordering prefix ``C_k``.
        min_size: prefixes smaller than this are skipped (tiny groups make
            the logarithm ratio noisy; the paper explicitly does not care
            about groups with a handful of cells).
        clamp: estimates are clamped to this physically meaningful range;
            Rent exponents of real circuits lie in roughly [0.4, 0.8] and
            values outside [0.1, 1.0] indicate a degenerate prefix.
        fallback: returned when no usable prefix exists.  The default 0.6
            (a typical logic Rent exponent) keeps downstream scoring defined
            on pathological inputs; callers that need to *detect* the
            degenerate case pass ``None``.
    """
    low, high = clamp
    estimates: List[float] = []
    for stats in prefix_stats:
        if stats.size < min_size or stats.cut <= 0 or stats.avg_pins <= 0:
            continue
        value = (math.log(stats.cut) - math.log(stats.avg_pins)) / math.log(stats.size)
        estimates.append(min(high, max(low, value)))
    if not estimates:
        return fallback
    return sum(estimates) / len(estimates)


def estimate_rent_exponent_from_curves(
    curves: PrefixCurves,
    min_size: int = 8,
    clamp: Tuple[float, float] = (0.1, 1.0),
    fallback: Optional[float] = 0.6,
) -> Optional[float]:
    """Vectorized :func:`estimate_rent_exponent_from_prefixes` over a whole
    :class:`~repro.netlist.ops.PrefixCurves`.

    Same estimator, same clamping, same usable-prefix filter; the average
    runs through ``cumsum`` so the float accumulation order matches the
    scalar left-to-right sum.
    """
    low, high = clamp
    usable = (curves.sizes >= min_size) & (curves.cuts > 0) & (curves.pins > 0)
    if not usable.any():
        return fallback
    sizes = curves.sizes[usable]
    cuts = curves.cuts[usable].astype(np.float64)
    avg_pins = curves.pins[usable] / sizes
    with np.errstate(divide="ignore", invalid="ignore"):
        values = (np.log(cuts) - np.log(avg_pins)) / np.log(sizes.astype(np.float64))
    values = np.clip(values, low, high)
    return float(np.cumsum(values)[-1]) / values.size


def fit_rent_exponent(
    sizes: Sequence[int], cuts: Sequence[int], min_size: int = 8
) -> Tuple[float, float]:
    """Least-squares fit of ``ln T = ln A + p ln |C|`` over a prefix curve.

    Returns ``(p, A)``.  Points with size < ``min_size`` or zero cut are
    skipped.  Raises :class:`MetricError` with fewer than two usable points.
    """
    xs: List[float] = []
    ys: List[float] = []
    for size, cut in zip(sizes, cuts):
        if size >= min_size and cut > 0:
            xs.append(math.log(size))
            ys.append(math.log(cut))
    if len(xs) < 2:
        raise MetricError("fit_rent_exponent needs at least two usable points")
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        raise MetricError("fit_rent_exponent: all sizes identical")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    p = sxy / sxx
    log_a = mean_y - p * mean_x
    return p, math.exp(log_a)

