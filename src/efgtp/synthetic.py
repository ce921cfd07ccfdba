"""Seeded synthetic road networks for benchmarks and demos.

Vertices are uniform random points in a square; a spanning tree links
each vertex i > 0 to its nearest predecessor, the j < i with the least
``np.hypot`` distance and, among equal distances, the smallest j. The
remaining edge budget is spent on short proximity edges, giving
planar-ish graphs whose edge weights are Euclidean lengths. Two presets
mirror the vertex/edge counts of the benchmark road networks used in the
experiments (1.2K/1.4K and 2.6K/3.3K).

One k-d tree serves both steps. For the spanning tree it returns each
vertex's few nearest points; the predecessors among them are re-scored
with ``np.hypot``. The row is kept when the farthest hit is farther than
the best predecessor by more than the rounding gap between the tree's
distances and ``np.hypot`` (``_MARGIN``): every point outside the hits is
then strictly farther, so the minimum and all its ties are among the
hits. Other rows (no predecessor among the hits, or the farthest hit within
the margin, as among many coincident points) scan the whole prefix instead.
"""

from __future__ import annotations

import math

import numpy as np

from .network import RoadNetwork

# Coordinates in [0, SCALE) are SCALE * r, rounded, for r = j * 2**-53. Distinct
# ones differ by over 1e-13: the float spacing from 512 up is 2**-43 or more, and
# below 1024 draws differ by SCALE * 2**-53 = 1.1e-12 less two roundings of at most
# 2**-44. So each squared difference is 0 or in [1e-26, 1e8], which is what
# _certified_predecessors relies on.
SCALE = 10_000.0

# Points the tree returns per vertex in the predecessor search, the vertex
# itself included. On minnesota_like, 8, 12 and 16 neighbours took 13, 13
# and 10-15 ms and left 330, 212 and 163 rows to the prefix scan.
_PREDECESSOR_HITS = 13

# Certificate margin, relative, with u = 2**-53. The tree's distance,
# sqrt(fl(fl(dx*dx) + fl(dy*dy))), and np.hypot(dx, dy) start from the same
# float differences, and each is within gamma_3 = 3u/(1 - 3u) of the real
# length (a libm hypot is no less accurate than that naive formula), so they
# differ by at most 2*gamma_3/(1 - gamma_3) < 7u while the squares are normal
# and finite. The tree prunes cells on squared lower bounds updated with one
# subtraction and one addition per level: at most 3u per level on squares
# over at most 64 levels, 96u on lengths. 7u + 96u, plus u for rounding the
# product best * (1 + _MARGIN), stays below 128u.
_MARGIN = 128 * 2.0**-53
_COINCIDENT_WEIGHT = SCALE * 1e-12  # edge weight between coincident points, exactly 1e-08


def random_geometric_network(vertex_count: int, edge_count: int, seed: int) -> RoadNetwork:
    """Connected network with exactly the requested vertex and edge counts."""
    n, m = vertex_count, edge_count
    if n < 2:
        raise ValueError(f"need at least 2 vertices, got {n}")
    if not (n - 1 <= m <= n * (n - 1) // 2):
        raise ValueError(f"edge count {m} impossible for {n} vertices")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    from scipy.spatial import cKDTree  # here, so that importing efgtp skips scipy.spatial

    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2)) * SCALE
    kdtree = cKDTree(pts)
    parent = _nearest_predecessors(pts, kdtree)  # keeps the tree road-like
    pairs = list(zip(parent[1:].tolist(), range(1, n)))

    extras = m - (n - 1)
    if extras:
        tree_keys = parent[1:] * n + np.arange(1, n)  # pair (a, b), a < b, as the key a*n + b
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
        candidates = list(zip((candidates // n).tolist(), (candidates % n).tolist()))
        rng.shuffle(candidates)
        pairs.extend(candidates[:extras])

    def weight(u: int, v: int) -> float:
        w = float(math.hypot(pts[u, 0] - pts[v, 0], pts[u, 1] - pts[v, 1]))
        return w if w > 0.0 else _COINCIDENT_WEIGHT

    edges = tuple((u, v, weight(u, v)) for u, v in pairs)
    external = tuple(str(i) for i in range(n))
    return RoadNetwork(
        vertex_count=n, edges=edges, external_ids=external, coords=pts
    )


def _certified_predecessors(pts: np.ndarray, tree) -> np.ndarray:
    """Each vertex's nearest predecessor where the tree's hits certify it, else -1.

    Precondition: every squared coordinate difference is finite, and normal if nonzero.
    """
    n = len(pts)
    k, rows = min(n, _PREDECESSOR_HITS), np.arange(n)
    dist, hits = tree.query(pts, k=k)
    hits = np.sort(hits, axis=1)  # by id, so that argmin keeps the smallest tied id
    d = np.hypot(pts[hits, 0] - pts[:, None, 0], pts[hits, 1] - pts[:, None, 1])
    d[hits >= rows[:, None]] = np.inf
    col = d.argmin(axis=1)
    best, far = d[rows, col], dist[:, -1]
    sure = (best < np.inf) & ((k == n) | (far > best * (1 + _MARGIN)))
    return np.where(sure, hits[rows, col], -1)


def _nearest_predecessors(pts: np.ndarray, tree) -> np.ndarray:
    """parent[i] is the nearest j < i, ties to the smallest j; parent[0] is -1.

    Rows the tree does not certify scan the whole prefix.
    """
    parent = _certified_predecessors(pts, tree)
    for i in np.flatnonzero(parent[1:] < 0) + 1:
        parent[i] = np.argmin(np.hypot(pts[:i, 0] - pts[i, 0], pts[:i, 1] - pts[i, 1]))
    return parent


def europe_like() -> RoadNetwork:
    """Stand-in with the benchmark's Europe-graph shape: 1174 vertices, 1417 edges."""
    return random_geometric_network(1174, 1417, seed=1)


def minnesota_like() -> RoadNetwork:
    """Stand-in with the benchmark's Minnesota-graph shape: 2642 vertices, 3303 edges."""
    return random_geometric_network(2642, 3303, seed=2)
