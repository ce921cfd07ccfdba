"""Independent reference implementations the tests cross-check against.

Nothing here shares code paths with the library: shortest paths come from
Floyd-Warshall instead of Dijkstra, the solver reference enumerates every
combination literally from the definitions, and spatial queries fall back
to linear scans. Exact-equality assertions pin instances to integer edge
weights, where float64 arithmetic is exact and both routes must agree
bitwise.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from efgtp import CategoryAssignment, EfGtpQuery, GroupSpec, RoadNetwork

INTEGER_WEIGHTS = (1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 9.0, 12.0)


def floyd_warshall(net: RoadNetwork) -> np.ndarray:
    """All-pairs shortest paths by triple-loop relaxation (vectorized rows)."""
    n = net.vertex_count
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for u, v, w in net.edges:
        if w < dist[u, v]:
            dist[u, v] = w
            dist[v, u] = w
    for k in range(n):
        via = dist[:, [k]] + dist[[k], :]
        np.minimum(dist, via, out=dist)
    return dist


@dataclass
class BruteOutcome:
    feasible_count: int
    best_aggregated: Optional[float]
    best_combo: Optional[tuple[int, ...]]
    best_members: Optional[tuple[float, ...]]
    best_gap: Optional[float]
    min_gap: float
    min_gap_combo: tuple[int, ...]
    epsilon: float

    @property
    def feasible(self) -> bool:
        return self.feasible_count > 0


def brute_force_solve(query: EfGtpQuery, dist: np.ndarray) -> BruteOutcome:
    """Literal enumeration over the whole category product.

    Per-member sums follow the same pinned order as the library (source
    leg, chain legs left to right, destination leg; members in index
    order) so agreement can be asserted exactly.
    """
    cats = query.categories.categories
    sources = query.group.sources
    destinations = query.group.destinations
    b = len(sources)
    threshold = query.envy_threshold

    count = 0
    best_key = None
    best_agg = None
    best_combo = None
    best_members = None
    best_gap = None
    min_key = None
    min_gap = None
    min_combo = None
    for pos in itertools.product(*(range(len(c)) for c in cats)):
        combo = tuple(cats[i][p] for i, p in enumerate(pos))
        members = []
        for s, t in zip(sources, destinations):
            d = float(dist[s, combo[0]])
            for a, c in zip(combo, combo[1:]):
                d = d + float(dist[a, c])
            d = d + float(dist[t, combo[-1]])  # each end leg from its member's row
            members.append(d)
        agg = 0.0
        for d in members:
            agg = agg + d
        gap = 0.0
        for i in range(b):
            for j in range(i + 1, b):
                g = abs(members[i] - members[j])
                if g > gap:
                    gap = g
        if min_key is None or (gap, pos) < min_key:
            min_key = (gap, pos)
            min_gap = gap
            min_combo = combo
        if gap <= threshold:
            count += 1
            if best_key is None or (agg, pos) < best_key:
                best_key = (agg, pos)
                best_agg = agg
                best_combo = combo
                best_members = tuple(members)
                best_gap = gap
    epsilon = 0.0 if count else min_gap - threshold
    return BruteOutcome(
        feasible_count=count,
        best_aggregated=best_agg,
        best_combo=best_combo,
        best_members=best_members,
        best_gap=best_gap,
        min_gap=min_gap,
        min_gap_combo=min_combo,
        epsilon=epsilon,
    )


def random_network(rng, n: int, extra: Optional[int] = None) -> RoadNetwork:
    """Random connected graph with integer weights (exact float arithmetic)."""
    if extra is None:
        extra = n // 2
    edge: dict[tuple[int, int], float] = {}
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edge[(j, i)] = INTEGER_WEIGHTS[int(rng.integers(0, len(INTEGER_WEIGHTS)))]
    attempts = 0
    while len(edge) < n - 1 + extra and attempts < 20 * (extra + 1):
        attempts += 1
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in edge:
            continue
        edge[key] = INTEGER_WEIGHTS[int(rng.integers(0, len(INTEGER_WEIGHTS)))]
    return RoadNetwork(
        vertex_count=n,
        edges=tuple((u, v, w) for (u, v), w in edge.items()),
        external_ids=tuple(str(i) for i in range(n)),
    )


def random_query(
    rng, net: RoadNetwork, k: int, per_cat: int, b: int, threshold: float
) -> EfGtpQuery:
    """Disjoint categories and endpoints drawn from one permutation."""
    need = k * per_cat + 2 * b
    if net.vertex_count < need:
        raise ValueError(f"need {need} vertices, network has {net.vertex_count}")
    perm = [int(v) for v in rng.permutation(net.vertex_count)]
    cats = tuple(
        tuple(perm[i * per_cat : (i + 1) * per_cat]) for i in range(k)
    )
    rest = perm[k * per_cat :]
    return EfGtpQuery(
        group=GroupSpec(sources=tuple(rest[:b]), destinations=tuple(rest[b : 2 * b])),
        categories=CategoryAssignment(cats),
        envy_threshold=threshold,
    )


def linear_nn(entries, qx: float, qy: float) -> int:
    """(id, x, y) entry minimizing Euclidean distance; smallest id on ties."""
    best = None
    for vid, x, y in entries:
        key = (math.hypot(x - qx, y - qy), vid)
        if best is None or key < best:
            best = key
    return best[1]


def linear_gnn(entries, points) -> int:
    """Entry minimizing the summed Euclidean distance to all query points."""
    best = None
    for vid, x, y in entries:
        key = (sum(math.hypot(x - px, y - py) for px, py in points), vid)
        if best is None or key < best:
            best = key
    return best[1]


def linear_network_nn(point: int, candidates, dist: np.ndarray) -> int:
    best = None
    for c in candidates:
        key = (float(dist[point, c]), c)
        if best is None or key < best:
            best = key
    return best[1]


def linear_network_gnn(points, candidates, dist: np.ndarray) -> int:
    best = None
    for c in candidates:
        total = 0.0
        for p in points:
            total = total + float(dist[p, c])
        key = (total, c)
        if best is None or key < best:
            best = key
    return best[1]
