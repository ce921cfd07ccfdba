"""Exact shortest-path distance oracle.

Two modes: a full n-by-n matrix, or on-demand single-source rows memoized
per source. Both answer identically; rows come from the same label-setting
(Dijkstra) engine on the network's CSR, so memoized and fresh rows are
bitwise equal.
"""

from __future__ import annotations

import struct
import threading
from typing import Iterable, Optional

import numpy as np
from scipy.sparse.csgraph import dijkstra as _dijkstra

from .network import RoadNetwork, is_connected

FULL = "full"
ON_DEMAND = "on-demand"

MATRIX_MAGIC = b"EFGTPDM1"
DEFAULT_MAX_BYTES = 4 * 1024**3


class CapacityError(RuntimeError):
    """A requested computation would exceed the configured memory budget."""


class DistanceOracle:
    """dist(u, v) lookups over a fixed network.

    Every read goes through one store of read-only rows. Given a matrix
    (full mode), the store holds a view of each of its rows from the start;
    otherwise (on-demand mode) rows are memoized as sources are queried,
    running Dijkstra on net.csgraph. Insertion is lock-protected so that
    concurrent readers never observe a partially built row.
    """

    def __init__(self, net: RoadNetwork, matrix: Optional[np.ndarray] = None):
        self.net = net
        self.matrix = matrix
        self.mode = ON_DEMAND if matrix is None else FULL
        self._rows: dict[int, np.ndarray] = {}
        if matrix is not None:
            matrix.setflags(write=False)
            self._rows.update(enumerate(matrix))
        self._lock = threading.Lock()

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
        batch.setflags(write=False)
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

    def save_matrix(self, path: str) -> None:
        """Write the full matrix cache: magic, n as u64-LE, n*n f64-LE row-major."""
        if self.mode != FULL:
            raise ValueError("matrix cache requires a full-matrix oracle")
        n = self.net.vertex_count
        with open(path, "wb") as f:
            f.write(MATRIX_MAGIC)
            f.write(struct.pack("<Q", n))
            f.write(np.ascontiguousarray(self.matrix, dtype="<f8").tobytes())


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
    return DistanceOracle(net, _dijkstra(net.csgraph, directed=True))


def load_matrix(path: str, net: RoadNetwork) -> DistanceOracle:
    """Load a matrix cache written by save_matrix into a full-mode oracle.

    Besides the magic, the vertex count and the payload length, row 0 must
    equal a fresh Dijkstra row of net bit for bit, so a cache written for
    another network with the same vertex count is rejected.
    """
    with open(path, "rb") as f:
        magic = f.read(len(MATRIX_MAGIC))
        if magic != MATRIX_MAGIC:
            raise ValueError(f"{path}: not a distance matrix cache (bad magic)")
        (n,) = struct.unpack("<Q", f.read(8))
        if n != net.vertex_count:
            raise ValueError(
                f"{path}: matrix is for {n} vertices, network has {net.vertex_count}"
            )
        payload = f.read()
    expected = n * n * 8
    if len(payload) != expected:
        raise ValueError(
            f"{path}: truncated matrix payload ({len(payload)} of {expected} bytes)"
        )
    matrix = np.frombuffer(payload, dtype="<f8").reshape(n, n).astype(np.float64)
    if n and not np.array_equal(matrix[0], _dijkstra(net.csgraph, directed=True, indices=0)):
        raise ValueError(f"{path}: matrix does not match this network (row 0 differs)")
    return DistanceOracle(net, matrix)
