"""Phase I on the numpy backend: the compiled absorb kernel and its fallback.

Two growers produce the same orderings (see :mod:`repro.finder.ordering`
for the algorithm):

* the **C kernel** ``_grow.c`` — the fast path on the numpy backend.  While
  it absorbs a cell it also records the cut and internal-net count of the
  prefix so far, so :func:`grow_ordering` hands Phase II the ordering's
  :class:`~repro.netlist.ops.PrefixCurves` without a second scan.  It is
  compiled with ``$CC`` (default ``cc``) on first use into
  ``${XDG_CACHE_HOME:-~/.cache}/repro/kernels/``, under a name keyed by the
  sha256 of its source, the compiler flags, the machine architecture and
  the resolved compiler binary, and loaded through :mod:`ctypes`.  Each
  build writes a temporary file in that directory and ``os.replace``-s it
  into place, so processes (CLI runs, a daemon) that race on first use
  all load one complete library.  A library is loaded only when it and its
  directory belong to the current user and neither is writable by group or
  others.  The call releases the GIL and reads the :class:`KernelTables`
  buffers in place;
* :class:`~repro.finder.ordering.LinearOrderingGrower` — the dict-based
  scalar reference.  It is the scalar backend's grower
  (``REPRO_SCALAR_BACKEND=1``), the kernel's parity reference, and the
  numpy backend's fallback when the kernel cannot be built or loaded (no
  compiler, a failed compile, an unwritable cache directory, a library or
  directory that fails the ownership check: one warning per process, then
  every ordering falls back).  The fallback's curves come from
  :func:`~repro.netlist.ops.scan_ordering_curves`, which is also the test
  oracle of the kernel's curves.

The kernel keeps flat state indexed by cell id, laid out once per netlist
from the CSR :class:`~repro.netlist.arrays.NetlistArrays` view:

* ``weight`` / ``cutstate`` — connection weight and folded cut-delta
  counters per cell (``cutstate`` is the sum of the reference's ``touched``
  and ``absorbable`` counters; only their sum enters the cut delta);
* ``degree2`` — per cell, the number of incident nets with >= 2 pins (the
  constant term of the cut delta, precomputed by :func:`multi_pin_degrees`
  for both growers, so a heap push is O(1));
* an *update CSR* — ``net_ptr``/``net_cells`` with fixed pins pre-dropped
  when ``exclude_fixed`` is set, so the absorb loop never re-tests pins.

The kernel's frontier is an *indexed* 4-ary min-heap: one slot per
frontier cell, found through a per-cell position array, so an update moves
the cell's slot instead of pushing a second entry.  The pop order is the
reference lazy heap's, ``(-weight, cut_delta, update counter)``, packed
into one unsigned 128-bit key: ``~bits(weight)`` (positive doubles order
like their bit patterns), then ``cut_delta + cut_bias``, then the counter.
Every update advances the counter (so ``heap_pushes`` counts updates, as
the reference's pushes do) and replaces the cell's key only when the new
key is smaller.  Connection weights only rise, so a changed weight always
replaces it; an update that rounds to no change (``w + d == w``) keeps the
old key unless the cut delta drops, which is the entry the lazy heap would
pop first of the two it keeps live.  The counter makes every key unique,
so the pop sequence does not depend on how the heap is laid out.

A cell's cut delta lies in ``[-2 * maxdeg, maxdeg]``, ``maxdeg`` being the
largest cell degree, so :class:`KernelTables` sets ``cut_bias = 2 *
maxdeg`` and gives the counter the low 64 bits the biased delta leaves
free (``counter_bits``, 58 at 53K cells).  An ordering whose counter
would outgrow that field raises :class:`~repro.errors.FinderError` rather
than pop in a wrong order.  Updates are applied pin by pin in CSR slice
order, the reference's exact float accumulation order, so orderings and
the ``heap_pushes`` telemetry are bit-identical across the two growers.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import platform
import shlex
import shutil
import stat
import subprocess
import sys
import tempfile
import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import FinderError
from repro.netlist.hypergraph import Netlist
from repro.netlist.ops import PrefixCurves, scan_ordering_curves
from repro.obs import trace

logger = logging.getLogger(__name__)

#: :meth:`Netlist.derived` key of the shared static tables.
_TABLES_KEY = "finder_kernel_tables"

#: The kernel's C source, compiled on first use.
_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_grow.c")

#: Compiler flags.  Strict C99 with no floating-point contraction (and never
#: ``-ffast-math``) keeps every weight bit-identical to the scalar grower.
CFLAGS = ("-O2", "-std=c99", "-ffp-contract=off", "-fPIC", "-shared")


def check_seed(netlist: Netlist, seed: int, exclude_fixed: bool) -> None:
    """Raise :class:`FinderError` unless ``seed`` can start an ordering."""
    if not 0 <= seed < netlist.num_cells:
        raise FinderError(f"seed cell {seed} out of range")
    if exclude_fixed and netlist.cell_is_fixed(seed):
        raise FinderError(f"seed cell {seed} is fixed and exclude_fixed is set")


def multi_pin_degrees(arrays) -> np.ndarray:
    """Per cell, the number of incident nets with >= 2 pins (int64)."""
    multi = (arrays.net_degrees[arrays.cell_nets] > 1).astype(np.int64)
    running = np.zeros(len(multi) + 1, dtype=np.int64)
    np.cumsum(multi, out=running[1:])
    return running[arrays.cell_ptr[1:]] - running[arrays.cell_ptr[:-1]]


class KernelTables:
    """Immutable per-netlist lookup tables read by the C kernel.

    Built once per netlist (:meth:`Netlist.derived`) with vectorized
    passes over the CSR view.  Every table is a contiguous numpy int64
    array.
    """

    def __init__(self, netlist: Netlist) -> None:
        arrays = netlist.arrays
        self.arrays = arrays
        self.num_cells = arrays.num_cells
        self.num_nets = arrays.num_nets
        self.cell_ptr = _int64(arrays.cell_ptr)
        self.cell_nets = _int64(arrays.cell_nets)
        self.net_degrees = _int64(arrays.net_degrees)
        self.degree2 = multi_pin_degrees(arrays)
        # Heap key fields: a cut delta lies in [-2 * maxdeg, maxdeg], so the
        # biased delta needs the bits of 3 * maxdeg and the update counter
        # gets the rest of the low 64 bits.
        max_degree = int(np.diff(self.cell_ptr).max(initial=0))
        self.cut_bias = 2 * max_degree
        self.counter_bits = 64 - max(1, (3 * max_degree).bit_length())
        # Update CSRs keyed by exclude_fixed: the absorb loop never updates
        # fixed pins, so pre-dropping them removes the per-pin check.  Net
        # *degrees* for the weight formula always use the full CSR.
        full = (_int64(arrays.net_ptr), _int64(arrays.net_cells))
        movable = full
        if arrays.fixed_mask.any():
            keep = ~arrays.fixed_mask[arrays.net_cells]
            running = np.zeros(len(keep) + 1, dtype=np.int64)
            np.cumsum(keep, out=running[1:])
            movable = (
                _int64(running[arrays.net_ptr]), _int64(arrays.net_cells[keep])
            )
        self._update_csr = {False: full, True: movable}

    def update_csr(self, exclude_fixed: bool) -> Tuple[np.ndarray, np.ndarray]:
        """``(ptr, flat)`` int64 arrays of the pin-update CSR."""
        return self._update_csr[exclude_fixed]

    @classmethod
    def for_netlist(cls, netlist: Netlist) -> "KernelTables":
        """The netlist's tables (built on first use)."""
        return netlist.derived(_TABLES_KEY, lambda: cls(netlist))


def _int64(array: np.ndarray) -> np.ndarray:
    """``array`` as a contiguous int64 array (no copy when it already is)."""
    return np.ascontiguousarray(array, dtype=np.int64)


# ---------------------------------------------------------------- C kernel
class _KernelState:
    """Per-process load state: unset, a loaded library, or ``None``."""

    lock = threading.Lock()
    loaded = False
    library: Optional[ctypes.CDLL] = None


def kernel_cache_dir() -> str:
    """Directory of the compiled kernels (``$XDG_CACHE_HOME`` or ``~/.cache``)."""
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(root, "repro", "kernels")


def _compiler() -> List[str]:
    """The compiler command line from ``$CC`` (default ``cc``)."""
    return shlex.split(os.environ.get("CC") or "cc")


def kernel_library_path() -> str:
    """Path of the library built from the current source, flags, machine
    architecture and compiler binary.

    The compiler is identified by its resolved path, size and modification
    time, so a cache directory shared between hosts, or a compiler upgrade,
    yields a new name instead of a library built for something else.
    """
    with open(_SOURCE, "rb") as handle:
        digest = hashlib.sha256(handle.read())
    compiler = _compiler()
    resolved = shutil.which(compiler[0]) if compiler else None
    identity = [sys.platform, platform.machine(), *CFLAGS, *compiler]
    if resolved is not None:
        resolved = os.path.realpath(resolved)
        info = os.stat(resolved)
        identity += [resolved, str(info.st_size), str(info.st_mtime_ns)]
    digest.update("\0".join(identity).encode())
    return os.path.join(kernel_cache_dir(), f"grow-{digest.hexdigest()[:20]}.so")


def _build(path: str) -> None:
    """Compile the kernel into ``path`` via a temp file and ``os.replace``."""
    directory = os.path.dirname(path)
    os.makedirs(directory, mode=0o700, exist_ok=True)
    compiler = _compiler()
    fd, scratch = tempfile.mkstemp(prefix=".grow-", suffix=".so", dir=directory)
    os.close(fd)
    try:
        result = subprocess.run(
            [*compiler, *CFLAGS, "-o", scratch, _SOURCE],
            capture_output=True,
            text=True,
            timeout=300,
        )
        if result.returncode != 0:
            raise OSError(
                f"{' '.join(compiler)} exited with {result.returncode}: "
                f"{result.stderr.strip()[-500:]}"
            )
        os.chmod(scratch, 0o755)  # whatever the umask, never group-writable
        os.replace(scratch, path)
    finally:
        if os.path.exists(scratch):
            os.unlink(scratch)


def _check_private(path: str) -> None:
    """Raise :class:`OSError` unless ``path`` belongs to the current user
    and is not writable by group or others."""
    info = os.stat(path)
    if info.st_uid != os.getuid() or info.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        raise OSError(
            f"{path} is not owned by uid {os.getuid()} or is writable by "
            f"group/others (mode {stat.filemode(info.st_mode)}, uid {info.st_uid})"
        )


def _load() -> ctypes.CDLL:
    path = kernel_library_path()
    if not os.path.exists(path):
        _build(path)
    _check_private(os.path.dirname(path))
    _check_private(path)
    library = ctypes.CDLL(path)
    table = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
    out = np.ctypeslib.ndpointer(dtype=np.int64, flags=("C_CONTIGUOUS", "W"))
    function = library.repro_grow_ordering
    function.restype = ctypes.c_int64
    function.argtypes = (
        [ctypes.c_int64] * 2 + [table] * 6 + [ctypes.c_int64] * 5 + [out] * 4
    )
    return library


def compiled_kernel() -> Optional[ctypes.CDLL]:
    """The loaded C kernel, or ``None`` when it cannot be built or loaded.

    Builds and loads at most once per process; a failure logs one warning
    and leaves every later call on the scalar
    :class:`~repro.finder.ordering.LinearOrderingGrower`.
    """
    state = _KernelState
    if not state.loaded:
        with state.lock:
            if not state.loaded:
                try:
                    state.library = _load()
                except (OSError, subprocess.SubprocessError) as error:
                    logger.warning(
                        "compiled Phase I kernel unavailable (%s); "
                        "growing orderings with the scalar grower",
                        error,
                    )
                state.loaded = True
    return state.library


def grow_ordering(
    netlist: Netlist,
    seed: int,
    max_length: int,
    lambda_skip: int = 20,
    exclude_fixed: bool = True,
) -> Tuple[np.ndarray, Dict[str, int], PrefixCurves]:
    """One Phase I ordering, its telemetry and its prefix curves on the
    numpy backend.

    Runs the C kernel when it loads, else the scalar
    :class:`~repro.finder.ordering.LinearOrderingGrower` followed by
    :func:`~repro.netlist.ops.scan_ordering_curves`; both give the same
    ordering (an int64 array), the same ``heap_pushes`` and the same
    curves.
    """
    library = compiled_kernel()
    if library is None:
        # Imported here: repro.finder.ordering imports this module.
        from repro.finder.ordering import LinearOrderingGrower

        grower = LinearOrderingGrower(
            netlist, seed, lambda_skip=lambda_skip, exclude_fixed=exclude_fixed
        )
        ordering = np.array(grower.grow(max_length), dtype=np.int64)
        trace.counter("finder.curve_scans").add(1)
        return ordering, grower.telemetry(), scan_ordering_curves(netlist, ordering)
    check_seed(netlist, seed, exclude_fixed)
    tables = KernelTables.for_netlist(netlist)
    limit = min(max_length, tables.num_cells)
    # The seed is absorbed even when the limit is 0.
    ordering, cuts, internal = (
        np.empty(max(1, limit), dtype=np.int64) for _ in range(3)
    )
    telemetry = np.zeros(1, dtype=np.int64)
    update_ptr, update_flat = tables.update_csr(exclude_fixed)
    length = library.repro_grow_ordering(
        tables.num_cells,
        tables.num_nets,
        tables.cell_ptr,
        tables.cell_nets,
        tables.net_degrees,
        tables.degree2,
        update_ptr,
        update_flat,
        seed,
        limit,
        lambda_skip,
        tables.cut_bias,
        tables.counter_bits,
        ordering,
        cuts,
        internal,
        telemetry,
    )
    if length == -2:
        raise FinderError(
            f"Phase I kernel's update counter outgrew its "
            f"{tables.counter_bits}-bit heap key field (seed {seed})"
        )
    if length < 0:
        raise FinderError(
            f"Phase I kernel could not allocate its working state "
            f"({tables.num_cells} cells, {tables.num_nets} nets)"
        )
    ordering = ordering[:length]
    curves = PrefixCurves(
        sizes=np.arange(1, length + 1, dtype=np.int64),
        cuts=cuts[:length],
        pins=np.cumsum(tables.arrays.pin_counts[ordering], dtype=np.int64),
        internal=internal[:length],
    )
    return ordering, {"heap_pushes": int(telemetry[0])}, curves


__all__ = [
    "KernelTables",
    "multi_pin_degrees",
    "compiled_kernel",
    "grow_ordering",
]
