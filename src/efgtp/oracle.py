"""Exact shortest-path distance oracle.

Two modes: a full n-by-n matrix, or on-demand single-source rows memoized
per source. Both answer identically; rows come from the same label-setting
(Dijkstra) engine, so memoized and fresh rows are bitwise equal.
"""

from __future__ import annotations

import struct
import threading
from typing import Iterable, Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _dijkstra

from .network import RoadNetwork, is_connected

FULL = "full"
ON_DEMAND = "on-demand"

MATRIX_MAGIC = b"EFGTPDM1"
DEFAULT_MAX_BYTES = 4 * 1024**3


class CapacityError(RuntimeError):
    """A requested computation would exceed the configured memory budget."""


def _build_csgraph(net: RoadNetwork) -> csr_matrix:
    n = net.vertex_count
    e = np.asarray(net.edges, dtype=np.float64).reshape(-1, 3)
    u, v, w = e[:, 0].astype(np.int64), e[:, 1].astype(np.int64), e[:, 2]
    rows, cols = np.concatenate((u, v)), np.concatenate((v, u))  # both directions
    return csr_matrix((np.concatenate((w, w)), (rows, cols)), shape=(n, n))


class DistanceOracle:
    """dist(u, v) lookups over a fixed network.

    Full mode holds the whole matrix; on-demand mode memoizes rows as
    sources are queried. On-demand insertion is lock-protected so that
    concurrent readers never observe a partially built row.
    """

    def __init__(self, net: RoadNetwork, mode: str, matrix: Optional[np.ndarray] = None):
        if mode not in (FULL, ON_DEMAND):
            raise ValueError(f"unknown oracle mode {mode!r}")
        self.net = net
        self.mode = mode
        self.matrix = matrix
        self._graph = _build_csgraph(net) if mode == ON_DEMAND else None
        self._rows: dict[int, np.ndarray] = {}
        self._lock = threading.Lock()

    @property
    def vertex_count(self) -> int:
        return self.net.vertex_count

    def _check(self, v: int) -> None:
        if not (0 <= v < self.net.vertex_count):
            raise ValueError(f"vertex id {v} out of range [0, {self.net.vertex_count})")

    def _memoize(self, sources: list[int]) -> None:
        """Compute and memoize the rows of distinct sources in one Dijkstra
        call; each row is bitwise equal to a single-source call's."""
        batch = _dijkstra(self._graph, directed=False, indices=sources)
        batch.setflags(write=False)
        with self._lock:
            for s, row in zip(sources, batch):
                self._rows.setdefault(s, row)

    def row(self, s: int) -> np.ndarray:
        """Distance vector from s; memoized in on-demand mode."""
        self._check(s)
        if self.mode == FULL:
            return self.matrix[s]
        row = self._rows.get(s)
        if row is None:
            self._memoize([s])
            row = self._rows[s]
        return row

    def rows(self, sources: Iterable[int]) -> np.ndarray:
        """Read-only (len(sources), n) array of the distance rows from sources,
        in order; in on-demand mode the rows not yet memoized are computed
        together in one Dijkstra call and memoized."""
        sources = list(sources)
        for s in sources:
            self._check(s)
        if self.mode == FULL:
            out = self.matrix[sources]
        else:
            missing = [s for s in dict.fromkeys(sources) if s not in self._rows]
            if missing:
                self._memoize(missing)
            out = np.empty((len(sources), self.vertex_count))
            for i, s in enumerate(sources):
                out[i] = self._rows[s]
        out.setflags(write=False)
        return out

    def dist(self, u: int, v: int) -> float:
        """Exact shortest-path length between u and v."""
        self._check(u)
        self._check(v)
        if self.mode == FULL:
            return float(self.matrix[u, v])
        cached = self._rows.get(u)
        if cached is not None:
            return float(cached[v])
        cached = self._rows.get(v)  # dist is symmetric on undirected networks
        if cached is not None:
            return float(cached[u])
        return float(self.row(u)[v])

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
    required_sources: Optional[Iterable[int]] = None,
    max_bytes: int = DEFAULT_MAX_BYTES,
) -> DistanceOracle:
    """Construct an oracle; full mode computes every row up front.

    required_sources prewarms those rows in on-demand mode. Full mode
    refuses to allocate beyond max_bytes and reports the required size.
    """
    if not is_connected(net):
        raise ValueError(
            "network is not connected; apply largest_connected_component first"
        )
    if mode == FULL:
        n = net.vertex_count
        needed = n * n * 8
        if needed > max_bytes:
            raise CapacityError(
                f"full distance matrix needs {needed} bytes "
                f"({n}x{n} float64), limit is {max_bytes}"
            )
        matrix = _dijkstra(_build_csgraph(net), directed=False)
        return DistanceOracle(net, FULL, matrix=matrix)
    oracle = DistanceOracle(net, ON_DEMAND)
    if required_sources is not None:
        oracle.rows(required_sources)
    return oracle


def load_matrix(path: str, net: RoadNetwork) -> DistanceOracle:
    """Load a matrix cache written by save_matrix into a full-mode oracle."""
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
    return DistanceOracle(net, FULL, matrix=matrix)
