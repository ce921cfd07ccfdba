"""Exact shortest-path distance oracle.

Two modes: a full n-by-n matrix, or on-demand single-source rows memoized
per source. Both answer identically; rows come from the same label-setting
(Dijkstra) engine on the network's CSR, so memoized and fresh rows are
bitwise equal. The full matrix is computed by forked workers, one per
usable CPU, where that pays (see build_oracle).
"""

from __future__ import annotations

import os
import selectors
import signal
import sys
import threading
import traceback
from typing import Iterable, NoReturn, Optional

import numpy as np
from scipy.sparse.csgraph import dijkstra as _dijkstra

from .network import RoadNetwork, is_connected

FULL = "full"
ON_DEMAND = "on-demand"

DEFAULT_MAX_BYTES = 4 * 1024**3

# Below this many vertices one serial full build beats forked workers. On a
# 2-CPU x86 host, with the process holding 0 to 200 MB, two workers took
# 16-19 ms against 13 ms serial at 400 vertices, broke even near 600, and
# took 63-67 ms against 86-88 ms at 1000.
_FORK_MIN_VERTICES = 600
_BLOCK_ROWS = 64  # rows per Dijkstra call and per block a worker streams


def _freeze(a: np.ndarray) -> None:
    """Mark a read-only, and the array that owns its memory too: scipy
    returns its rows as a view of that array, which stays writable."""
    a.setflags(write=False)
    if isinstance(a.base, np.ndarray):
        a.base.setflags(write=False)


class CapacityError(RuntimeError):
    """A requested computation would exceed the configured memory budget."""


class DistanceOracle:
    """dist(u, v) lookups over a fixed network.

    Every read goes through one store of read-only rows. Given a matrix
    (full mode), the store holds a view of each of its rows from the start;
    build_oracle's matrix is private to this process, whether one serial
    call or forked workers computed it, and bitwise the same either way.
    Otherwise (on-demand mode) rows are memoized as sources are queried,
    running Dijkstra on net.csgraph in this process, however many rows a
    call asks for. Insertion is lock-protected so that concurrent readers
    never observe a partially built row.

    pair_tables is a one-entry memo for efgtp.exact: (key, tables), where
    key is (query.group, query.categories) and tables the threshold-free
    part of a fast solve of that query (member rows, end legs, the
    read-only pair-gap table and its first minimum), about 2b*n + n1*nk
    floats. A fast solve, min_additional_distance or gap_distribution of
    another query replaces it whole; faithful solves neither read nor
    write it. None until the first of them.
    """

    pair_tables: Optional[tuple]

    def __init__(self, net: RoadNetwork, matrix: Optional[np.ndarray] = None):
        self.net = net
        self.mode = ON_DEMAND if matrix is None else FULL
        self._rows: dict[int, np.ndarray] = {}
        if matrix is not None:
            _freeze(matrix)
            self._rows.update(enumerate(matrix))
        self._lock = threading.Lock()
        self.pair_tables = None

    @property
    def vertex_count(self) -> int:
        return self.net.vertex_count

    def _check(self, v: int) -> None:
        if not (0 <= v < self.net.vertex_count):
            raise ValueError(f"vertex id {v} out of range [0, {self.net.vertex_count})")

    def _memoize(self, sources: list[int]) -> None:
        """Compute and memoize the rows of distinct sources in one Dijkstra
        call; each row is bitwise equal to a single-source call's. The CSR
        holds both directions of every edge, so a directed search is the
        undirected one without scipy's per-call transpose."""
        batch = _dijkstra(self.net.csgraph, directed=True, indices=sources)
        _freeze(batch)
        with self._lock:
            for s, row in zip(sources, batch):
                self._rows.setdefault(s, row)

    def holds(self, s: int) -> bool:
        """Whether the row of s is in the store (reading it computes nothing)."""
        return s in self._rows

    def row(self, s: int) -> np.ndarray:
        """Read-only distance vector from s."""
        row = self._rows.get(s)
        if row is None:
            self.prefetch((s,))
            row = self._rows[s]
        return row

    def prefetch(self, sources: Iterable[int]) -> None:
        """Validate every source id not yet memoized (a memoized id was
        checked before its row was stored), then compute those rows
        (duplicates once) together in one Dijkstra call and memoize them."""
        missing = [s for s in sources if s not in self._rows]
        for s in missing:
            self._check(s)
        if missing:
            self._memoize(list(dict.fromkeys(missing)))

    def rows(self, sources: Iterable[int]) -> np.ndarray:
        """Read-only (len(sources), n) array of the distance rows from sources,
        in order, after one prefetch of them."""
        sources = list(sources)
        self.prefetch(sources)
        out = np.empty((len(sources), self.vertex_count))
        for i, s in enumerate(sources):
            out[i] = self._rows[s]
        out.setflags(write=False)
        return out

    def dist(self, u: int, v: int) -> float:
        """Exact shortest-path length from u to v, always read as row(u)[v]:
        on non-integer weights the row of v can differ in the last bits."""
        self._check(v)
        row = self._rows.get(u)
        if row is None:
            row = self.row(u)
        return float(row[v])


def build_oracle(
    net: RoadNetwork,
    mode: str = ON_DEMAND,
    max_bytes: int = DEFAULT_MAX_BYTES,
) -> DistanceOracle:
    """Construct an oracle; full mode computes every row up front.

    A network with no vertices, or a disconnected one, raises ValueError
    (connectivity is computed once per network and stored on it). Full
    mode refuses to allocate beyond max_bytes and reports the required
    size.

    Full mode forks one worker per CPU the process may use
    (os.sched_getaffinity, else os.cpu_count). Each computes a contiguous
    range of sources in blocks of rows and streams them through a pipe into
    the one private (n, n) array the oracle wraps. The build is one serial
    Dijkstra call instead where os.fork is missing, one CPU is usable, or
    the network has fewer than _FORK_MIN_VERTICES vertices. Every row is
    bitwise equal to the serial build's. During the build this process
    holds the matrix and no second copy of it; each worker holds one block
    of rows at a time. Every worker is reaped before this returns or
    raises; a failed worker raises RuntimeError naming its rows.
    """
    if mode not in (FULL, ON_DEMAND):
        raise ValueError(f"unknown oracle mode {mode!r}; expected {FULL!r} or {ON_DEMAND!r}")
    if net.vertex_count == 0:
        raise ValueError("network has no vertices")
    if not is_connected(net):
        raise ValueError(
            "network is not connected; apply largest_connected_component first"
        )
    if mode == ON_DEMAND:
        return DistanceOracle(net)
    n = net.vertex_count
    needed = n * n * 8
    if needed > max_bytes:
        raise CapacityError(
            f"full distance matrix needs {needed} bytes "
            f"({n}x{n} float64), limit is {max_bytes}"
        )
    return DistanceOracle(net, _full_matrix(net))


def _workers() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _full_matrix(net: RoadNetwork) -> np.ndarray:
    """Every Dijkstra row of net as one private (n, n) array: one serial
    call, or forked workers where fork exists, more than one CPU is usable
    and the network is large enough to repay the forks."""
    n = net.vertex_count
    workers = min(_workers(), -(-n // _BLOCK_ROWS))
    if workers < 2 or n < _FORK_MIN_VERTICES or not hasattr(os, "fork"):
        return _dijkstra(net.csgraph, directed=True)
    return _forked_rows(net.csgraph, n, workers)


def _forked_rows(graph, n: int, workers: int) -> np.ndarray:
    """Split the sources into one contiguous range per worker, fork a child
    per range and copy the rows the children stream through pipes into one
    (n, n) array. Each row is bitwise equal to the serial build's. Every
    child is reaped before this returns or raises; a child that fails
    raises RuntimeError naming its rows, and the others are killed.

    Children are forked, not spawned: they inherit the CSR, import and
    unpickle nothing, and run only scipy's Dijkstra and os.write (and, if
    they fail, print the traceback)."""
    matrix = np.empty((n, n))
    out = memoryview(matrix).cast("B")
    row_bytes = matrix.itemsize * n
    bounds = [n * i // workers for i in range(workers + 1)]
    unreaped: set[int] = set()
    with selectors.DefaultSelector() as sel:
        try:
            for lo, hi in zip(bounds, bounds[1:]):
                r, w = os.pipe()
                # [child pid, first row, end row, next byte of matrix to fill]
                child = [0, lo, hi, lo * row_bytes]
                sel.register(r, selectors.EVENT_READ, child)
                try:
                    child[0] = os.fork()
                    if child[0] == 0:
                        _stream_rows(graph, lo, hi, w, tuple(sel.get_map()))
                finally:
                    os.close(w)
                unreaped.add(child[0])
            while sel.get_map():
                for key, _ in sel.select():
                    pid, lo, hi, pos = key.data
                    end = hi * row_bytes
                    got = os.readv(key.fd, [out[pos:end] if pos < end else bytearray(1)])
                    if got and pos < end:
                        key.data[3] += got
                        continue
                    sel.unregister(key.fd)
                    os.close(key.fd)
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    unreaped.discard(pid)
                    if got or pos < end or code:
                        raise RuntimeError(
                            f"distance rows {lo}..{hi - 1} failed in a forked worker "
                            f"(exit code {code}, {(pos - lo * row_bytes) // row_bytes} "
                            f"of {hi - lo} rows received)"
                        )
        finally:
            for fd in list(sel.get_map()):
                sel.unregister(fd)
                os.close(fd)
            for pid in unreaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return matrix


def _stream_rows(graph, lo: int, hi: int, fd: int, inherited: tuple[int, ...]) -> NoReturn:
    """In a forked child: write the rows of sources lo..hi-1 to fd, in
    blocks of _BLOCK_ROWS, then exit without running any parent clean-up.
    The child first closes the pipes' read ends it inherited, so a write
    fails at once, instead of blocking, once the parent has stopped
    reading."""
    code = 1
    try:
        for r in inherited:
            os.close(r)
        for a in range(lo, hi, _BLOCK_ROWS):
            block = _dijkstra(graph, directed=True, indices=np.arange(a, min(a + _BLOCK_ROWS, hi)))
            view = memoryview(block).cast("B")
            while view:
                view = view[os.write(fd, view):]
        code = 0
    except Exception:
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)
