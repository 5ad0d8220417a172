"""Unified compute-backend selection for the vectorized hot paths.

Every vectorized hot path in the reproduction — the geometry kernels
(HPWL, RUDY, quadratic assembly), the array-backed detection kernel
(Phase I-III of the finder), incremental diffing and dirty-region
expansion, and the flat-array FM partition kernel
(:mod:`repro.partition.kernel`) — keeps its pure-Python implementation
alive as a *scalar reference*.  The ``REPRO_SCALAR_BACKEND`` environment
variable is the one switch between the two: unset, empty or ``"0"``
selects ``"numpy"``, anything else the scalar reference ``"python"``.
Each hot path calls :func:`resolve_backend` itself; no function takes a
per-call backend argument.  :func:`forced_backend` sets the variable for
the duration of a ``with`` block, which is how tests and benchmarks
compare the two in one process.

Both backends produce identical results: orderings, integer group
statistics and FM partitions (move sequences, sides, cuts, pass counts)
are bit-identical by construction, floating-point scores agree to well
below 1e-9 (see ``tests/test_finder_kernel.py`` and
``tests/test_partition_kernel.py``), and flow fingerprints never depend on
the backend at all.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

from repro.errors import NetlistError

#: Environment variable forcing the scalar reference backend everywhere.
SCALAR_BACKEND_ENV_VAR = "REPRO_SCALAR_BACKEND"

VALID_BACKENDS = ("numpy", "python")


def resolve_backend() -> str:
    """The active compute backend: ``"numpy"``, or ``"python"`` when
    :data:`SCALAR_BACKEND_ENV_VAR` forces the scalar reference."""
    value = os.environ.get(SCALAR_BACKEND_ENV_VAR, "").strip()
    return "numpy" if value in ("", "0") else "python"


@contextmanager
def forced_backend(backend: str) -> Iterator[None]:
    """Force ``backend`` process-wide for the duration of the block.

    Sets :data:`SCALAR_BACKEND_ENV_VAR` and restores the previous value on
    exit — the in-process switch for benchmarks and tests that compare the
    two backends.
    """
    if backend not in VALID_BACKENDS:
        raise NetlistError(
            f"unknown backend {backend!r}; use 'numpy' or 'python'"
        )
    previous = os.environ.get(SCALAR_BACKEND_ENV_VAR)
    os.environ[SCALAR_BACKEND_ENV_VAR] = "1" if backend == "python" else "0"
    try:
        yield
    finally:
        if previous is None:
            del os.environ[SCALAR_BACKEND_ENV_VAR]
        else:
            os.environ[SCALAR_BACKEND_ENV_VAR] = previous


__all__ = [
    "SCALAR_BACKEND_ENV_VAR",
    "VALID_BACKENDS",
    "forced_backend",
    "resolve_backend",
]
