"""Independent reference implementations the tests cross-check against.

Nothing here shares code paths with the library, apart from the edge-list
parser that reference_load_network reads with: shortest paths come from
Floyd-Warshall instead of Dijkstra, the solver reference enumerates every
combination literally from the definitions, spatial queries fall back
to linear scans, coordinates are read one line at a time, and components
are found by a search. Exact-equality assertions pin instances to integer
edge weights, where float64 arithmetic is exact and both routes must agree
bitwise.
"""

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from efgtp import CategoryAssignment, EfGtpQuery, GroupSpec, RoadNetwork, parse_edge_list

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


def left_sum(values) -> float:
    """values added left to right from 0.0, as the README's numerical
    contract states (builtin sum is compensated from Python 3.12 on)."""
    total = 0.0
    for v in values:
        total += v
    return total


def linear_gnn(entries, points) -> int:
    """Entry minimizing the summed Euclidean distance to all query points."""
    best = None
    for vid, x, y in entries:
        key = (left_sum(math.hypot(x - px, y - py) for px, py in points), vid)
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


def prefix_scan_predecessors(pts: np.ndarray) -> np.ndarray:
    """Nearest j < i of each point i > 0, smallest j on ties; -1 for point 0.

    One scan of the whole prefix per point, with the generator's np.hypot
    expression, so that both agree to the bit.
    """
    parent = np.full(len(pts), -1)
    for i in range(1, len(pts)):
        parent[i] = np.argmin(np.hypot(pts[:i, 0] - pts[i, 0], pts[:i, 1] - pts[i, 1]))
    return parent


# ---------------------------------------------------------------------------
# the line-by-line reading of coordinates, and the largest component
# ---------------------------------------------------------------------------


def reference_parse_coords(text: str, net: RoadNetwork) -> np.ndarray:
    index = {ext: i for i, ext in enumerate(net.external_ids)}
    coords = np.full((net.vertex_count, 2), np.nan)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%") or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'id x y', got {line!r}")
        i = index.get(parts[0])
        if i is None:
            continue
        if not math.isnan(coords[i, 0]):  # rows start as NaN, so this one is set
            raise ValueError(f"line {lineno}: second coordinate line for id {parts[0]!r}")
        try:
            x, y = float(parts[1]), float(parts[2])
        except ValueError:
            raise ValueError(f"line {lineno}: malformed coordinates {line!r}") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"line {lineno}: coordinates must be finite, got {line!r}")
        coords[i] = x, y
    missing = np.flatnonzero(np.isnan(coords[:, 0]))
    if missing.size:
        first = net.external_ids[int(missing[0])]
        raise ValueError(
            f"{missing.size} vertices have no coordinates (first missing id: {first})"
        )
    return coords


def reference_largest_component(net: RoadNetwork) -> RoadNetwork:
    """The largest component by a search from each unlabelled vertex in id
    order (ties to the component of the smallest id), re-densified edge by edge."""
    adjacent: list[list[int]] = [[] for _ in range(net.vertex_count)]
    for u, v, _ in net.edges:
        adjacent[u].append(v)
        adjacent[v].append(u)
    label = [-1] * net.vertex_count
    sizes: list[int] = []
    for start in range(net.vertex_count):
        if label[start] >= 0:
            continue
        label[start], stack = len(sizes), [start]
        sizes.append(0)
        while stack:
            sizes[-1] += 1
            for nxt in adjacent[stack.pop()]:
                if label[nxt] < 0:
                    label[nxt] = label[start]
                    stack.append(nxt)
    if len(sizes) == 1:
        return net
    best = sizes.index(max(sizes))
    kept = [(u, v, w) for u, v, w in net.edges if label[u] == best]
    ids: dict[int, int] = {}  # old id -> new id, in first appearance over the kept edges
    for u, v, _ in kept:
        ids.setdefault(u, len(ids))
        ids.setdefault(v, len(ids))
    old = list(ids) or [label.index(best)]
    return RoadNetwork(
        vertex_count=len(old),
        edges=tuple((min(ids[u], ids[v]), max(ids[u], ids[v]), w) for u, v, w in kept),
        external_ids=tuple(net.external_ids[i] for i in old),
        coords=net.coords[old] if net.coords is not None else None,
    )


def reference_load_network(dataset, coords=None) -> RoadNetwork:
    """Read as experiments.load_network does: the edge list by the library's
    own line-by-line parser, the coordinates one line at a time, and the
    largest component by a search."""
    net = parse_edge_list(Path(dataset).read_text())
    if coords is not None:
        coords = reference_parse_coords(Path(coords).read_text(), net)
        net = RoadNetwork(net.vertex_count, net.edges, net.external_ids, coords)
    return reference_largest_component(net)


def reference_edge_error(vertex_count: int, edges) -> Optional[str]:
    """The message of the first bad edge, checked one edge at a time, or None."""
    n = vertex_count
    seen_pairs: set[tuple[int, int]] = set()
    for u, v, w in edges:
        if not (0 <= u < n and 0 <= v < n):
            return f"edge ({u}, {v}) endpoint out of range [0, {n})"
        if u == v:
            return f"self-loop on vertex {u}"
        if u > v:
            return f"edge ({u}, {v}) not normalized to u < v"
        if (u, v) in seen_pairs:
            return f"parallel edge ({u}, {v})"
        seen_pairs.add((u, v))
        if not (0.0 < w < math.inf):
            return f"edge ({u}, {v}) weight must be positive and finite, got {w}"
    return None
