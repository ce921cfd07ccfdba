"""Independent reference answers and the banded checker.

Distances come from the benchmark's own directed sparse graph built from
``net.edges`` and scipy's Dijkstra; nothing here goes through
``efgtp.oracle``. Exact answers come from enumerating the whole category
product with numpy in the README's pinned summation order; Euclidean picks
come from linear scans over the vertex coordinates.

Rounding band. Every distance is a float sum of at most n - 1 positive
edge weights along one path, so it lies within a relative gamma(n - 1) of
its exact value, where gamma(m) = m*u / (1 - m*u) and u = 2**-53. A member
trip adds k + 1 such distances and the aggregate sums b trips, so every
computed trip, aggregate or gap, by the program or by this reference, lies
within gamma(N) * M of its exact value, with N = n + k + b + 1 and
M = b * Tmax, Tmax bounding any one member trip. Two such computations
differ by at most delta = 2 * gamma(N) * M. Euclidean pick values (sums of
at most 2b hypotenuses) use the same form with N = 2b + 2 and M bounding
any candidate's summed distance. See README.md for the derivation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

UNIT_ROUNDOFF = 2.0**-53
CHUNK = 1 << 20  # product cells enumerated per numpy block


def gamma(m: int) -> float:
    """Higham's gamma_m: relative error bound of an m-term float sum."""
    return m * UNIT_ROUNDOFF / (1.0 - m * UNIT_ROUNDOFF)


class RefGraph:
    """Shortest-path distances from the benchmark's own CSR graph."""

    def __init__(self, net):
        e = np.asarray(net.edges, dtype=np.float64).reshape(-1, 3)
        u = e[:, 0].astype(np.int64)
        v = e[:, 1].astype(np.int64)
        w = e[:, 2]
        n = net.vertex_count
        self.n = n
        self.coords = np.asarray(net.coords, dtype=np.float64)
        self.graph = csr_matrix(
            (np.concatenate([w, w]), (np.concatenate([u, v]), np.concatenate([v, u]))),
            shape=(n, n),
        )
        self._rows: dict[int, np.ndarray] = {}

    def rows(self, sources) -> np.ndarray:
        """(len(sources), n) distances; rows are memoized until clear()."""
        src = [int(s) for s in sources]
        missing = sorted({s for s in src if s not in self._rows})
        if missing:
            block = dijkstra(self.graph, directed=True, indices=missing)
            for s, row in zip(missing, np.atleast_2d(block)):
                self._rows[s] = row
        return np.stack([self._rows[s] for s in src])

    def clear(self) -> None:
        self._rows.clear()


@dataclass
class Legs:
    """Leg tables of one query: everything a check needs, nothing more."""

    cats: tuple[np.ndarray, ...]
    pos: tuple[dict[int, int], ...]  # vertex -> position, per category
    S: np.ndarray  # (n1, b) dist(source_m, first-category POI)
    T: np.ndarray  # (nk, b) dist(last-category POI, destination_m)
    L: tuple[np.ndarray, ...]  # (n_i, n_{i+1}) chain legs
    src_xy: np.ndarray  # (b, 2) source coordinates
    dst_xy: np.ndarray  # (b, 2) destination coordinates
    cat_xy: tuple[np.ndarray, ...]  # (n_i, 2) POI coordinates
    delta: float
    delta_euclid: float
    _stats: dict = field(default_factory=dict, repr=False)

    @property
    def k(self) -> int:
        return len(self.cats)

    @property
    def b(self) -> int:
        return self.S.shape[1]


def build_legs(ref: RefGraph, query) -> Legs:
    cats = tuple(np.asarray(c, dtype=np.int64) for c in query.categories.categories)
    src = list(query.group.sources)
    dst = list(query.group.destinations)
    S = ref.rows(src)[:, cats[0]].T.copy()
    T = ref.rows(dst)[:, cats[-1]].T.copy()
    L = tuple(ref.rows(cats[i])[:, cats[i + 1]] for i in range(len(cats) - 1))
    b, k = len(src), len(cats)
    tmax = float(S.max() + sum(leg.max() for leg in L) + T.max())
    delta = 2.0 * gamma(ref.n + k + b + 1) * b * tmax
    xy = ref.coords
    span = float(np.hypot(*(xy.max(axis=0) - xy.min(axis=0))))
    return Legs(
        cats=cats,
        pos=tuple({int(v): i for i, v in enumerate(c)} for c in cats),
        S=S,
        T=T,
        L=L,
        src_xy=xy[src],
        dst_xy=xy[dst],
        cat_xy=tuple(xy[c] for c in cats),
        delta=delta,
        delta_euclid=2.0 * gamma(2 * b + 2) * 2 * b * span,
    )


def pair_gaps(S: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Envy gap of each (first POI, last POI) pair from the end legs S and T."""
    ends = S[:, None, :] + T[None, :, :]
    return (ends.max(axis=2) - ends.min(axis=2)).ravel()


def route_values(legs: Legs, combo) -> tuple[np.ndarray, float, float]:
    """Per-member trips, aggregate and gap of one combination (pinned order)."""
    p = [legs.pos[i][int(v)] for i, v in enumerate(combo)]
    vals = legs.S[p[0]].copy()
    for i, leg in enumerate(legs.L):
        vals = vals + leg[p[i], p[i + 1]]
    vals = vals + legs.T[p[-1]]
    agg = 0.0
    for x in vals:
        agg += float(x)
    return vals, agg, float(vals.max() - vals.min())


def _product_blocks(legs: Legs):
    """Yield (gap, aggregate) arrays over the product, blocked by first POI."""
    k, b = legs.k, legs.b
    inner = math.prod(len(c) for c in legs.cats[1:])
    step = max(1, CHUNK // inner)
    n1 = len(legs.cats[0])
    for lo in range(0, n1, step):
        hi = min(n1, lo + step)
        agg = mx = mn = None
        for m in range(b):
            acc = legs.S[lo:hi, m].reshape((hi - lo,) + (1,) * (k - 1))
            for i, leg in enumerate(legs.L):
                block = leg[lo:hi] if i == 0 else leg
                shape = [1] * k
                shape[i], shape[i + 1] = block.shape
                acc = acc + block.reshape(shape)
            acc = acc + legs.T[:, m].reshape((1,) * (k - 1) + (-1,))
            if m == 0:
                agg, mx, mn = acc, acc, acc
            else:
                agg = agg + acc
                mx = np.maximum(mx, acc)
                mn = np.minimum(mn, acc)
        yield (mx - mn).ravel(), agg.ravel()


@dataclass(frozen=True)
class SpaceStats:
    """Reference facts about one query's whole combination space at one D."""

    count_lo: int  # combinations with gap <= D - delta
    count_hi: int  # combinations with gap <= D + delta
    best_lo: float  # least aggregate among gap <= D - delta (inf if none)
    min_gap: float


def space_stats(legs: Legs, D: float) -> SpaceStats:
    key = float(D)
    hit = legs._stats.get(key)
    if hit is not None:
        return hit
    lo_t, hi_t = key - legs.delta, key + legs.delta
    count_lo = count_hi = 0
    best_lo = min_gap = math.inf
    for gap, agg in _product_blocks(legs):
        ok = gap <= lo_t
        count_lo += int(ok.sum())
        count_hi += int((gap <= hi_t).sum())
        if ok.any():
            best_lo = min(best_lo, float(agg[ok].min()))
        min_gap = min(min_gap, float(gap.min()))
    out = SpaceStats(count_lo, count_hi, best_lo, min_gap)
    legs._stats[key] = out
    return out


def layered_optimum(legs: Legs) -> float:
    """Least aggregate with no envy bound, by a layered shortest path.

    The chain term is shared by all b members, so the aggregate of a
    combination is sum(S) + b * chain + sum(T); this needs no product
    enumeration and serves categories far too large to enumerate.
    """
    f = legs.S.sum(axis=1)
    for leg in legs.L:
        f = (f[:, None] + legs.b * leg).min(axis=0)
    return float((f + legs.T.sum(axis=1)).min())


# ---------------------------------------------------------------------------
# checks: each returns a list of problems, empty when the answer passes
# ---------------------------------------------------------------------------


def _valid_combo(legs: Legs, combo, what: str) -> list[str]:
    if combo is None or len(combo) != legs.k:
        return [f"{what}: expected {legs.k} POIs, got {combo!r}"]
    bad = [i for i, v in enumerate(combo) if int(v) not in legs.pos[i]]
    return [f"{what}: POI {combo[i]} not in category {i}" for i in bad]


def _route_problems(legs: Legs, route, D: float, what: str) -> list[str]:
    probs = _valid_combo(legs, route.combination, what)
    if probs:
        return probs
    d = legs.delta
    vals, agg, gap = route_values(legs, route.combination)
    if len(route.per_member) != legs.b or any(
        abs(x - y) > d for x, y in zip(route.per_member, vals)
    ):
        probs.append(f"{what}: per-member trips {route.per_member} vs reference {tuple(vals)}")
    if not abs(route.aggregated - agg) <= d:
        probs.append(f"{what}: aggregate {route.aggregated!r} vs reference {agg!r}")
    if not abs(route.max_gap - gap) <= d:
        probs.append(f"{what}: max_gap {route.max_gap!r} vs reference {gap!r}")
    if route.feasible and gap > D + d:
        probs.append(f"{what}: flagged feasible with reference gap {gap!r} > D {D!r}")
    if not route.feasible and gap <= D - d:
        probs.append(f"{what}: flagged infeasible with reference gap {gap!r} <= D {D!r}")
    return probs


def check_exact(legs: Legs, D: float, out) -> list[str]:
    """solve_exact outcome against the reference space at threshold D."""
    st = space_stats(legs, D)
    d = legs.delta
    probs: list[str] = []
    if not st.count_lo <= out.feasible_count <= st.count_hi:
        probs.append(
            f"feasible_count {out.feasible_count} outside reference "
            f"[{st.count_lo}, {st.count_hi}] at D={D!r}"
        )
    if not abs(out.min_gap - st.min_gap) <= d:
        probs.append(f"min_gap {out.min_gap!r} vs reference {st.min_gap!r}")
    wprobs = _valid_combo(legs, out.min_gap_witness, "witness")
    if wprobs:
        probs += wprobs
    else:
        wgap = route_values(legs, out.min_gap_witness)[2]
        if not abs(wgap - st.min_gap) <= d:
            probs.append(f"witness gap {wgap!r} vs reference minimum {st.min_gap!r}")
    if out.optimal is not None:
        r = out.optimal
        probs += _route_problems(legs, r, D, "optimum")
        if not _valid_combo(legs, r.combination, "optimum"):
            _, agg, gap = route_values(legs, r.combination)
            if gap > D + d:
                probs.append(f"optimum gap {gap!r} exceeds D {D!r} by more than {d:.3g}")
            if agg > st.best_lo + d:
                probs.append(f"optimum aggregate {agg!r} above reference best {st.best_lo!r}")
        if out.epsilon != 0.0:
            probs.append(f"feasible outcome with epsilon {out.epsilon!r}")
    else:
        if st.count_lo > 0:
            probs.append(f"no optimum although {st.count_lo} combinations are feasible")
        if not (out.epsilon == out.min_gap - D and out.epsilon > 0.0):
            probs.append(f"epsilon {out.epsilon!r} is not min_gap - D > 0 at D={D!r}")
    return probs


def check_mad(legs: Legs, D: float, out, mad) -> list[str]:
    """min_additional_distance against solve_exact and the reference."""
    d_gap, eps, witness = mad
    probs: list[str] = []
    if not abs(d_gap - out.min_gap) <= legs.delta:
        probs.append(f"mad d {d_gap!r} disagrees with solve_exact min_gap {out.min_gap!r}")
    if not (eps == d_gap - D and eps > 0.0):
        probs.append(f"mad epsilon {eps!r} is not d - D > 0")
    if not abs(eps - out.epsilon) <= legs.delta:
        probs.append(f"mad epsilon {eps!r} disagrees with solve_exact {out.epsilon!r}")
    wprobs = _valid_combo(legs, witness, "mad witness")
    if wprobs:
        return probs + wprobs
    st = space_stats(legs, D)
    wgap = route_values(legs, witness)[2]
    if not abs(wgap - st.min_gap) <= legs.delta:
        probs.append(f"mad witness gap {wgap!r} vs reference minimum {st.min_gap!r}")
    return probs


def pick_values(legs: Legs, combo, euclidean: bool):
    """(value of each pick, best value in its category) along the chain."""
    k = legs.k
    out = []
    for i in range(k):
        if euclidean:
            cxy = legs.cat_xy[i]
            if i == 0:
                anchors = legs.src_xy
            elif i == k - 1:
                anchors = legs.dst_xy
            else:
                anchors = None
            if anchors is None:
                prev = legs.cat_xy[i - 1][legs.pos[i - 1][int(combo[i - 1])]]
                vals = np.hypot(cxy[:, 0] - prev[0], cxy[:, 1] - prev[1])
            else:
                vals = np.zeros(len(cxy))
                for ax, ay in anchors:
                    vals = vals + np.hypot(cxy[:, 0] - ax, cxy[:, 1] - ay)
        else:
            if i == 0:
                vals = legs.S.sum(axis=1)
            elif i == k - 1:
                vals = legs.T.sum(axis=1)
            else:
                vals = legs.L[i - 1][legs.pos[i - 1][int(combo[i - 1])]]
        out.append((float(vals[legs.pos[i][int(combo[i])]]), float(vals.min())))
    return out


def check_heuristic(legs: Legs, D: float, res, euclidean: bool) -> list[str]:
    """solve_heuristic: one POI per category in order, each a best pick."""
    route = res.route
    probs = _valid_combo(legs, route.combination, "heuristic route")
    if probs:
        return probs
    band = legs.delta_euclid if euclidean else legs.delta
    for i, (val, best) in enumerate(pick_values(legs, route.combination, euclidean)):
        if val > best + band:
            probs.append(f"pick {i} value {val!r} exceeds the category best {best!r}")
    return probs + _route_problems(legs, route, D, "heuristic route")


def check_quantiles(legs: Legs, qs, thresholds) -> list[str]:
    """threshold_quantiles against quantiles of the reference pair gaps.

    This follows what the library computes today, unweighted quantiles of
    the (first, last) pair gaps, not the quantiles over the combination
    space that its docstring promises (see FOUND in CHANGES.md).
    """
    ref = np.quantile(pair_gaps(legs.S, legs.T), list(qs))
    return [
        f"threshold at q={q} is {t!r}, reference {r!r}"
        for q, t, r in zip(qs, thresholds, ref)
        if not abs(t - r) <= legs.delta
    ]
