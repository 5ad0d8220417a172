"""Random-number helpers.

Every stochastic entry point in the package accepts either a seed, a
:class:`random.Random` instance, or ``None``; :func:`ensure_rng` normalizes
those into a :class:`random.Random` so results are reproducible when a seed
is supplied.
"""

from __future__ import annotations

import random
from typing import Sequence, Union

RngLike = Union[None, int, random.Random]


def ensure_rng(rng: RngLike = None) -> random.Random:
    """Return a :class:`random.Random` for ``rng``.

    ``None`` yields a fresh unseeded generator, an ``int`` seeds a new
    generator, and an existing :class:`random.Random` is passed through.
    """
    if rng is None:
        return random.Random()
    if isinstance(rng, random.Random):
        return rng
    if isinstance(rng, bool) or not isinstance(rng, int):
        raise TypeError(f"rng must be None, int or random.Random, got {type(rng)!r}")
    return random.Random(rng)


def sample_distinct(
    population: Sequence[int], k: int, rng: RngLike = None
) -> list:
    """Sample ``min(k, len(population))`` distinct items from ``population``."""
    generator = ensure_rng(rng)
    k = min(k, len(population))
    if k <= 0:
        return []
    return generator.sample(list(population), k)


def spawn_seeds(rng: RngLike, count: int) -> list:
    """Derive ``count`` independent integer seeds from ``rng``.

    Used to hand one deterministic seed to each parallel finder run.
    """
    generator = ensure_rng(rng)
    return [generator.randrange(2**63) for _ in range(count)]
