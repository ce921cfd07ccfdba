"""Seeded synthetic road networks for benchmarks and demos.

Vertices are uniform random points in a square; a spanning tree links
each vertex to its nearest predecessor, and the remaining edge budget is
spent on short proximity edges, giving planar-ish graphs whose edge
weights are Euclidean lengths. Two presets mirror the vertex/edge counts
of the benchmark road networks used in the experiments (1.2K/1.4K and
2.6K/3.3K).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

from .network import RoadNetwork

DEFAULT_SCALE = 10_000.0


def random_geometric_network(
    vertex_count: int,
    edge_count: int,
    seed: int,
    scale: float = DEFAULT_SCALE,
) -> RoadNetwork:
    """Connected network with exactly the requested vertex and edge counts."""
    n, m = vertex_count, edge_count
    if n < 2:
        raise ValueError(f"need at least 2 vertices, got {n}")
    if not (n - 1 <= m <= n * (n - 1) // 2):
        raise ValueError(f"edge count {m} impossible for {n} vertices")
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2)) * scale

    pairs: list[tuple[int, int]] = []
    for i in range(1, n):  # nearest predecessor keeps the tree road-like
        j = int(np.argmin(np.hypot(pts[:i, 0] - pts[i, 0], pts[:i, 1] - pts[i, 1])))
        pairs.append((j, i))

    extras = m - (n - 1)
    if extras:
        tree = np.array(pairs)
        tree_keys = tree[:, 0] * n + tree[:, 1]  # pair (a, b), a < b, as the key a*n + b
        kdtree = cKDTree(pts)
        k = min(n - 1, 8)
        while True:
            _, nbrs = kdtree.query(pts, k=k + 1)  # first hit is the point itself
            i, j = np.repeat(np.arange(n), k + 1), nbrs.ravel()
            near = i != j
            keys = np.minimum(i, j)[near] * n + np.maximum(i, j)[near]
            candidates = np.setdiff1d(keys, tree_keys)  # sorted, unique
            if len(candidates) >= extras or k == n - 1:
                break
            k = min(n - 1, k * 2)  # widen the neighborhood until enough pairs
        if len(candidates) < extras:
            raise ValueError(f"cannot place {extras} extra edges on {n} vertices")
        candidates = list(zip((candidates // n).tolist(), (candidates % n).tolist()))
        rng.shuffle(candidates)
        pairs.extend(candidates[:extras])

    def weight(u: int, v: int) -> float:
        w = float(math.hypot(pts[u, 0] - pts[v, 0], pts[u, 1] - pts[v, 1]))
        return w if w > 0.0 else scale * 1e-12  # coincident points, near-impossible

    edges = tuple((u, v, weight(u, v)) for u, v in pairs)
    external = tuple(str(i) for i in range(n))
    return RoadNetwork(
        vertex_count=n, edges=edges, external_ids=external, coords=pts
    )


def europe_like(seed: int = 1) -> RoadNetwork:
    """Stand-in with the benchmark's Europe-graph shape: 1174 vertices, 1417 edges."""
    return random_geometric_network(1174, 1417, seed=seed)


def minnesota_like(seed: int = 2) -> RoadNetwork:
    """Stand-in with the benchmark's Minnesota-graph shape: 2642 vertices, 3303 edges."""
    return random_geometric_network(2642, 3303, seed=seed)


def to_matrix_market(net: RoadNetwork) -> str:
    """Symmetric coordinate MatrixMarket text (1-based ids, weights as values)."""
    lines = [
        "%%MatrixMarket matrix coordinate real symmetric",
        f"{net.vertex_count} {net.vertex_count} {net.edge_count}",
    ]
    for u, v, w in net.edges:
        lines.append(f"{u + 1} {v + 1} {float(w)!r}")
    return "\n".join(lines) + "\n"
