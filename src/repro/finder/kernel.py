"""Phase I on the numpy backend: the compiled absorb kernel and its fallback.

Three growers produce the same orderings (see :mod:`repro.finder.ordering`
for the algorithm):

* the **C kernel** ``_grow.c`` — the default on the numpy backend.  It is
  compiled with ``$CC`` (default ``cc``) on first use into
  ``${XDG_CACHE_HOME:-~/.cache}/repro/kernels/``, under a name keyed by the
  sha256 of its source, the compiler flags, the machine architecture and
  the resolved compiler binary, and loaded through :mod:`ctypes`.  Each
  build writes a temporary file in that directory and ``os.replace``-s it
  into place, so pool workers and shard processes that race on first use
  all load one complete library.  A library is loaded only when it and its
  directory belong to the current user and neither is writable by group or
  others.  The call releases the GIL and reads the :class:`KernelTables`
  buffers in place;
* :class:`ArrayOrderingGrower` — the same loop in Python over flat lists.
  It runs when the kernel cannot be built or loaded (no compiler, a failed
  compile, an unwritable cache directory, a library or directory that
  fails the ownership check: one warning per process, then every ordering
  falls back) and is the kernel's parity reference;
* :class:`~repro.finder.ordering.LinearOrderingGrower` — the dict-based
  scalar reference, selected by ``REPRO_SCALAR_BACKEND=1``.

The array growers keep flat state indexed by cell id, laid out once per
netlist from the CSR :class:`~repro.netlist.arrays.NetlistArrays` view:

* ``weight`` / ``cutstate`` — connection weight and folded cut-delta
  counters per cell (``cutstate`` is the sum of the reference's ``touched``
  and ``absorbable`` counters; only their sum enters the cut delta);
* ``degree2`` — per cell, the number of incident nets with >= 2 pins (the
  constant term of the cut delta, precomputed in :class:`KernelTables` so a
  heap push is O(1) instead of the reference's O(cell degree) recount);
* an *update CSR* — ``net_ptr``/``net_cells`` with fixed pins pre-dropped
  when ``exclude_fixed`` is set, so the absorb loop never re-tests pins.

Heap bookkeeping is value-validated: an entry ``(-weight, cut_delta,
counter, cell)`` is live iff the cell is still outside the group and its
recorded weight equals the current state.  Connection weights strictly
increase with every update, so the live entry per cell is always its most
recent push — exactly the tie-breaking the reference's lazy heap implements
with a shadow dict, without paying for the dict.  The insertion counter
makes every key unique, so the pop sequence does not depend on how either
heap is laid out, and compacting the heap to its live entries (same rule
in both array growers) leaves it unchanged.  Updates are applied pin by pin
in CSR slice order, the reference's exact float accumulation order, so
orderings, weights, cut deltas and the ``heap_pushes`` telemetry are all
bit-identical across the three growers.

:class:`KernelTables` holds the CSR buffers as numpy int64 arrays, which the
C kernel reads without copying.  The Python grower indexes one cell at a
time, where list indexing beats numpy scalar indexing several times over,
so it asks for ``.tolist()`` views — built only when it runs.
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
from functools import cached_property
from heapq import heapify, heappop, heappush
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import FinderError
from repro.netlist.hypergraph import Netlist

logger = logging.getLogger(__name__)

#: Key of the shared static tables inside ``netlist.derived_cache``.
_TABLES_KEY = "finder_kernel_tables"

#: The kernel's C source, compiled on first use.
_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_grow.c")

#: Compiler flags.  Strict C99 with no floating-point contraction (and never
#: ``-ffast-math``) keeps every weight bit-identical to the Python growers.
CFLAGS = ("-O2", "-std=c99", "-ffp-contract=off", "-fPIC", "-shared")


def check_seed(netlist: Netlist, seed: int, exclude_fixed: bool) -> None:
    """Raise :class:`FinderError` unless ``seed`` can start an ordering."""
    if not 0 <= seed < netlist.num_cells:
        raise FinderError(f"seed cell {seed} out of range")
    if exclude_fixed and netlist.cell_is_fixed(seed):
        raise FinderError(f"seed cell {seed} is fixed and exclude_fixed is set")


class _ListViews(NamedTuple):
    """``.tolist()`` copies of the tables for :class:`ArrayOrderingGrower`."""

    degree2: List[int]
    net_degrees: List[int]
    cell_ptr: List[int]
    cell_nets: List[int]
    update_ptr: List[int]
    update_flat: List[int]


class KernelTables:
    """Immutable per-netlist lookup tables shared by all array growers.

    Built once per netlist (cached on its derived-object cache) with
    vectorized passes over the CSR view.  Every table is a contiguous numpy
    int64 array; :meth:`list_views` adds the Python grower's list copies on
    demand.
    """

    def __init__(self, netlist: Netlist) -> None:
        arrays = netlist.arrays
        self.arrays = arrays
        self.num_cells = arrays.num_cells
        self.num_nets = arrays.num_nets
        self.cell_ptr = _int64(arrays.cell_ptr)
        self.cell_nets = _int64(arrays.cell_nets)
        self.net_degrees = _int64(arrays.net_degrees)
        multi = (self.net_degrees[self.cell_nets] > 1).astype(np.int64)
        running = np.zeros(len(multi) + 1, dtype=np.int64)
        np.cumsum(multi, out=running[1:])
        self.degree2 = running[self.cell_ptr[1:]] - running[self.cell_ptr[:-1]]
        # Update CSRs keyed by exclude_fixed: the absorb loop never updates
        # fixed pins, so pre-dropping them removes the per-pin check.  Net
        # *degrees* for the weight formula always use the full CSR.
        self._update_csr: Dict[bool, Tuple[np.ndarray, np.ndarray]] = {}
        self._list_views: Dict[bool, _ListViews] = {}

    def update_csr(self, exclude_fixed: bool) -> Tuple[np.ndarray, np.ndarray]:
        """``(ptr, flat)`` int64 arrays of the pin-update CSR."""
        entry = self._update_csr.get(exclude_fixed)
        if entry is None:
            arrays = self.arrays
            if exclude_fixed and arrays.fixed_mask.any():
                keep = ~arrays.fixed_mask[arrays.net_cells]
                flat = arrays.net_cells[keep]
                running = np.zeros(len(keep) + 1, dtype=np.int64)
                np.cumsum(keep, out=running[1:])
                ptr = running[arrays.net_ptr]
            else:
                flat = arrays.net_cells
                ptr = arrays.net_ptr
            entry = (_int64(ptr), _int64(flat))
            self._update_csr[exclude_fixed] = entry
        return entry

    def list_views(self, exclude_fixed: bool) -> _ListViews:
        """The tables as Python lists (built on first use per flag)."""
        views = self._list_views.get(exclude_fixed)
        if views is None:
            ptr, flat = self.update_csr(exclude_fixed)
            views = _ListViews(*self._static_lists, ptr.tolist(), flat.tolist())
            self._list_views[exclude_fixed] = views
        return views

    @cached_property
    def _static_lists(self) -> Tuple[List[int], ...]:
        return (
            self.degree2.tolist(),
            self.net_degrees.tolist(),
            self.cell_ptr.tolist(),
            self.cell_nets.tolist(),
        )

    @classmethod
    def for_netlist(cls, netlist: Netlist) -> "KernelTables":
        """The netlist's cached tables (built on first use)."""
        tables = netlist.derived_cache.get(_TABLES_KEY)
        if tables is None:
            tables = cls(netlist)
            netlist.derived_cache[_TABLES_KEY] = tables
        return tables


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
        [ctypes.c_int64] * 2 + [table] * 6 + [ctypes.c_int64] * 3 + [out] * 2
    )
    return library


def compiled_kernel() -> Optional[ctypes.CDLL]:
    """The loaded C kernel, or ``None`` when it cannot be built or loaded.

    Builds and loads at most once per process; a failure logs one warning
    and leaves every later call on :class:`ArrayOrderingGrower`.
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
                        "growing orderings with the Python array grower",
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
) -> Tuple[List[int], Dict[str, int]]:
    """One Phase I ordering and its telemetry on the numpy backend.

    Runs the C kernel when it loads, else :class:`ArrayOrderingGrower`;
    both give the same ordering and the same telemetry.
    """
    library = compiled_kernel()
    if library is None:
        grower = ArrayOrderingGrower(
            netlist, seed, lambda_skip=lambda_skip, exclude_fixed=exclude_fixed
        )
        return grower.grow(max_length), grower.telemetry()
    check_seed(netlist, seed, exclude_fixed)
    tables = KernelTables.for_netlist(netlist)
    limit = min(max_length, tables.num_cells)
    ordering = np.empty(max(1, limit), dtype=np.int64)
    telemetry = np.zeros(2, dtype=np.int64)
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
        ordering,
        telemetry,
    )
    if length < 0:
        raise FinderError(
            f"Phase I kernel could not allocate its working state "
            f"({tables.num_cells} cells, {tables.num_nets} nets)"
        )
    return ordering[:length].tolist(), {
        "heap_pushes": int(telemetry[0]),
        "heap_compactions": int(telemetry[1]),
    }


class ArrayOrderingGrower:
    """Flat-CSR implementation of Phase I; API-compatible with
    :class:`~repro.finder.ordering.LinearOrderingGrower` and bit-identical
    to it in every observable (ordering, weights, cut deltas)."""

    def __init__(
        self,
        netlist: Netlist,
        seed: int,
        lambda_skip: int = 20,
        exclude_fixed: bool = True,
    ) -> None:
        check_seed(netlist, seed, exclude_fixed)
        tables = KernelTables.for_netlist(netlist)
        self._tables = tables.list_views(exclude_fixed)
        self._lambda_skip = lambda_skip
        # Heap entries are (-weight, cut_delta, counter << bits | cell):
        # packing the insertion counter and the cell id into one int keeps
        # entries at three slots and comparisons cheap; counter order is
        # preserved because the cell id occupies the low bits.
        self._cell_bits = max(1, (tables.num_cells - 1).bit_length())
        self._cell_mask = (1 << self._cell_bits) - 1
        # Private flat state; a fresh zero list is memset-cheap even for
        # 100K-cell designs, so growers never share mutable scratch.
        self._weight: List[float] = [0.0] * tables.num_cells
        self._cutstate: List[int] = [0] * tables.num_cells
        self._inside_count = {}  # net -> pins inside the group
        self._in_group = set()
        self._frontier_count = 0
        self._heap: List[tuple] = []
        self._counter = 0
        self._compactions = 0
        self._ordering: List[int] = []
        self._absorb(seed)

    # ------------------------------------------------------------------
    @property
    def ordering(self) -> List[int]:
        """Cells in the order they were absorbed (seed first)."""
        return list(self._ordering)

    @property
    def frontier_size(self) -> int:
        """Number of candidate cells currently adjacent to the group."""
        return self._frontier_count

    def connection_weight(self, cell: int) -> float:
        """Current connection weight of frontier cell ``cell`` (0 if absent)."""
        if cell in self._in_group:
            return 0.0
        return self._weight[cell]

    def cut_delta(self, cell: int) -> int:
        """Net-cut change if frontier cell ``cell`` were absorbed now."""
        state = 0 if cell in self._in_group else self._cutstate[cell]
        return self._tables.degree2[cell] - state

    # ------------------------------------------------------------------
    def step(self) -> Optional[int]:
        """Absorb the best frontier cell; return it, or ``None`` if stuck."""
        heap = self._heap
        weight = self._weight
        in_group = self._in_group
        mask = self._cell_mask
        while heap:
            neg_weight, _, packed = heappop(heap)
            cell = packed & mask
            # Live iff still outside the group and the recorded weight is
            # current (weights strictly increase, so stale entries always
            # record a smaller weight).
            if cell in in_group or -neg_weight != weight[cell]:
                continue
            self._absorb(cell)
            return cell
        return None

    def grow(self, max_length: int) -> List[int]:
        """Grow until ``max_length`` cells or the frontier empties."""
        heap = self._heap
        weight = self._weight
        in_group = self._in_group
        ordering = self._ordering
        absorb = self._absorb
        compact = self._compact
        mask = self._cell_mask
        while len(ordering) < max_length and heap:
            neg_weight, _, packed = heappop(heap)
            cell = packed & mask
            if cell in in_group or -neg_weight != weight[cell]:
                continue
            absorb(cell)
            if len(heap) > 8192 and len(heap) > 4 * self._frontier_count:
                compact()
        return self.ordering

    def _compact(self) -> None:
        """Drop stale heap entries, keeping exactly the live ones.

        A cell's live entry is the unique one recording its current weight
        (weights strictly increase), so filtering by value keeps one entry
        per frontier cell with its original counter — pop order, including
        insertion-order tie-breaking, is unchanged.  Without compaction the
        heap accumulates every superseded push and each push/pop sifts
        through the garbage; the scalar reference pays exactly that cost.
        """
        weight = self._weight
        in_group = self._in_group
        mask = self._cell_mask
        live = [
            entry
            for entry in self._heap
            if (cell := entry[2] & mask) not in in_group
            and -entry[0] == weight[cell]
        ]
        heapify(live)
        self._heap[:] = live  # in place: callers hold references to the list
        self._compactions += 1

    def telemetry(self) -> Dict[str, int]:
        """Work counters of this grower (same keys as the scalar grower).

        The heap counter advances by ``1 << _cell_bits`` per push, so the
        lifetime push count falls out of a shift — no hot-loop cost.
        """
        return {
            "heap_pushes": self._counter >> self._cell_bits,
            "heap_compactions": self._compactions,
        }

    # ------------------------------------------------------------------
    def _absorb(self, cell: int) -> None:
        tables = self._tables
        in_group = self._in_group
        weight = self._weight
        in_group.add(cell)
        if weight[cell] != 0.0:
            self._frontier_count -= 1
        self._ordering.append(cell)

        inside_count = self._inside_count
        net_degrees = tables.net_degrees
        cutstate = self._cutstate
        degree2 = tables.degree2
        update_ptr = tables.update_ptr
        update_flat = tables.update_flat
        heap = self._heap
        # The counter lives pre-shifted: bumping by ``counter_step`` leaves
        # the low bits free for the cell id, so a push is one add + one or.
        counter_step = 1 << self._cell_bits
        counter = self._counter
        frontier_count = self._frontier_count
        lambda_skip = self._lambda_skip

        cell_ptr = tables.cell_ptr
        for net in tables.cell_nets[cell_ptr[cell] : cell_ptr[cell + 1]]:
            old_inside = inside_count.get(net, 0)
            new_inside = old_inside + 1
            inside_count[net] = new_inside
            degree = net_degrees[net]
            outside = degree - new_inside
            if outside == 0:
                continue  # net fully absorbed; no outside pins to update

            first_touch = old_inside == 0
            if not first_touch and lambda_skip and outside >= lambda_skip:
                # Paper's optimization: weight change 1/(lambda+1) - 1/(lambda+2)
                # is negligible for large lambda; skip the O(|e|) update.
                continue

            span = update_flat[update_ptr[net] : update_ptr[net + 1]]
            # Per-pin updates in CSR slice order — the reference's exact
            # accumulation and push order (stale lower-weight entries are
            # discarded by value validation at pop time).
            if first_touch:
                delta = 1.0 / (outside + 1)
                cut_increment = 2 if outside == 1 else 1
                for other in span:
                    if other in in_group:
                        continue
                    old_weight = weight[other]
                    if old_weight == 0.0:
                        frontier_count += 1
                    new_weight = old_weight + delta
                    weight[other] = new_weight
                    state = cutstate[other] + cut_increment
                    cutstate[other] = state
                    counter += counter_step
                    heappush(
                        heap, (-new_weight, degree2[other] - state, counter | other)
                    )
            else:
                # Re-touched net: every outside pin was updated at first
                # touch (in-group membership never reverts), so it already
                # carries a positive weight — no frontier accounting here.
                delta = 1.0 / (outside + 1) - 1.0 / (degree - old_inside + 1)
                if outside == 1:
                    for other in span:
                        if other in in_group:
                            continue
                        new_weight = weight[other] + delta
                        weight[other] = new_weight
                        state = cutstate[other] + 1
                        cutstate[other] = state
                        counter += counter_step
                        heappush(
                            heap,
                            (-new_weight, degree2[other] - state, counter | other),
                        )
                else:
                    for other in span:
                        if other in in_group:
                            continue
                        new_weight = weight[other] + delta
                        weight[other] = new_weight
                        counter += counter_step
                        heappush(
                            heap,
                            (
                                -new_weight,
                                degree2[other] - cutstate[other],
                                counter | other,
                            ),
                        )
        self._counter = counter
        self._frontier_count = frontier_count


__all__ = [
    "ArrayOrderingGrower",
    "KernelTables",
    "compiled_kernel",
    "grow_ordering",
]
