"""Exhaustive solver for envy-constrained group trip queries.

A query fixes one POI category order; every member travels
source -> chosen POI chain -> destination. The solver enumerates POI
combinations, minimizes the group's aggregated distance subject to the
pairwise envy bound, and reports the minimum extra slack when no
combination satisfies the bound.

Summation order is pinned everywhere (source leg, chain legs left to
right, destination leg; members in index order) so results are bit-stable
and exact comparisons are meaningful. Because the chain term is shared by
all members, the envy gap of a combination depends only on its first and
last POIs, and every path computes it from them (_end_gap). The default
solve takes every gap from a table over first/last pairs and searches
only the feasible pairs' combinations; faithful mode, the reference,
evaluates every combination through the route kernel of evaluate_route.
The two agree bit for bit.
"""

from __future__ import annotations

import csv
import itertools
import json
import logging
import math
import time
from dataclasses import dataclass, replace
from typing import IO, Optional

import numpy as np

from .network import CategoryAssignment, GroupSpec, RoadNetwork, _resolve_ids
from .oracle import CapacityError, DistanceOracle

logger = logging.getLogger(__name__)

PoiCombination = tuple[int, ...]

PROGRESS_EVERY = 1_000_000


@dataclass(frozen=True)
class EfGtpQuery:
    """Group itinerary query: members, ordered categories, envy threshold."""

    group: GroupSpec
    categories: CategoryAssignment
    envy_threshold: float

    def __post_init__(self):
        d = self.envy_threshold
        if math.isnan(d) or d < 0.0:
            raise ValueError(f"envy threshold must be nonnegative, got {d}")

    @property
    def b(self) -> int:
        return self.group.b

    @property
    def k(self) -> int:
        return self.categories.k

    def validate_against(self, net: RoadNetwork) -> None:
        self.group.validate_against(net)
        self.categories.validate_against(net)

    def with_threshold(self, threshold: float) -> "EfGtpQuery":
        return replace(self, envy_threshold=threshold)


@dataclass(frozen=True)
class EvaluatedRoute:
    """One POI combination with its per-member and group-level metrics."""

    combination: PoiCombination
    per_member: tuple[float, ...]
    aggregated: float
    max_gap: float
    feasible: bool


@dataclass(frozen=True)
class SolveOutcome:
    """Solver result: optimal route when feasible, slack report otherwise.

    min_gap is the smallest achievable envy gap over all combinations
    (always reported); epsilon = min_gap - threshold when infeasible and
    0.0 by convention when feasible. min_gap_witness is the first
    combination in enumeration order attaining min_gap.
    """

    optimal: Optional[EvaluatedRoute]
    feasible_count: int
    min_gap: float
    min_gap_witness: PoiCombination
    epsilon: float

    @property
    def feasible(self) -> bool:
        return self.optimal is not None


def validate_combination(categories: CategoryAssignment, rho: PoiCombination) -> None:
    if len(rho) != categories.k:
        raise ValueError(f"expected {categories.k} POIs, got {len(rho)}")
    category_of = categories.category_of
    for i, v in enumerate(rho):
        if category_of.get(v) != i:
            raise ValueError(f"POI {v} is not in category {i}")


def _member_distances(s, chain, t) -> list[float]:
    """Per-member trips in the pinned order: source leg, chain legs left to
    right, destination leg. s and t hold the per-member end legs."""
    for leg in chain:
        s = [x + leg for x in s]
    return [x + y for x, y in zip(s, t)]


def _left_sum(values) -> float:
    """Left-to-right sum from 0.0; builtin sum is compensated from Python 3.12 on."""
    total = 0.0
    for v in values:
        total += v
    return total


def _end_gap(s, t):
    """Envy gap from the end legs: max - min over members of s_i + t_i.

    The chain term is shared by all members and cancels, so this is the gap
    of every combination with these end legs; on exact arithmetic it equals
    the largest pairwise difference of the trips. Takes one combination's
    legs as lists of floats, or arrays whose last axis runs over members
    (leading axes broadcast); both give the same bits.
    """
    if isinstance(s, list):  # one route: plain floats beat numpy's per-call cost
        ends = [x + y for x, y in zip(s, t)]
        return max(ends) - min(ends)
    # one broadcast plane per member: a reduction over a short last axis
    # is many times slower, and max/min are exact, so the bits are the same
    hi = lo = s[..., 0] + t[..., 0]
    for i in range(1, s.shape[-1]):
        ends = s[..., i] + t[..., i]
        hi, lo = np.maximum(hi, ends), np.minimum(lo, ends)
    return hi - lo


def _route(combo, s, chain, t, threshold: float) -> EvaluatedRoute:
    """Evaluate one combination from its source, chain and destination legs."""
    vals = _member_distances(s, chain, t)
    gap = _end_gap(s, t)
    return EvaluatedRoute(
        combination=combo,
        per_member=tuple(vals),
        aggregated=_left_sum(vals),  # in member order
        max_gap=gap,
        feasible=gap <= threshold,
    )


def evaluate_route(
    query: EfGtpQuery, rho: PoiCombination, oracle: DistanceOracle
) -> EvaluatedRoute:
    """Evaluate one combination: per-member trips, total, gap, feasibility.
    per_member[i] is member i's individual distance, aggregated the group's
    aggregated distance, and max_gap the envy gap."""
    rho = tuple(rho)
    validate_combination(query.categories, rho)
    sources, destinations = query.group.sources, query.group.destinations
    oracle.prefetch((*sources, *rho[:-1], *destinations))  # every row read below
    s = [oracle.dist(v, rho[0]) for v in sources]
    chain = [oracle.dist(u, v) for u, v in zip(rho, rho[1:])]
    t = [oracle.dist(v, rho[-1]) for v in destinations]
    return _route(rho, s, chain, t, query.envy_threshold)


# ---------------------------------------------------------------------------
# solver internals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Tables:
    """The threshold-independent part of a solve, indexed by per-category
    positions: the end legs and the pair-gap table read from the member
    rows. One instance is shared by every solve of its query on an oracle
    (_tables), so it holds nothing that a solve writes; the chain legs
    each solve fetches are its own (_fetch_chain)."""

    cats: tuple[tuple[int, ...], ...]
    members: np.ndarray  # (2b, n): the member rows, sources then destinations
    s_np: np.ndarray  # (n1, b): dist(source_i, first-category POI)
    t_np: np.ndarray  # (nk, b): dist(destination_i, last-category POI)
    s_cols: list[list[float]]
    t_cols: list[list[float]]
    # read-only envy gap per (first POI, last POI) pair, (n1, nk); for
    # k = 1 each POI is its own pair, (n1,)
    gaps: np.ndarray
    min_gap: float  # the first gap minimum and its positions (_gap_minimum)
    witness: tuple[int, ...]


def _prepare_tables(query: EfGtpQuery, oracle: DistanceOracle) -> _Tables:
    """Build the end legs and the pair-gap table from one batched fetch of
    the member rows."""
    cats = query.categories.categories
    b = query.b
    rows = oracle.rows(itertools.chain(query.group.sources, query.group.destinations))
    s_np = rows[:b][:, cats[0]].T.copy()  # (n1, b), read from the source rows
    t_np = rows[b:][:, cats[-1]].T.copy()  # (nk, b), from the destination rows
    gaps = _end_gap(s_np[:, None, :], t_np[None, :, :]) if query.k > 1 else _end_gap(s_np, t_np)
    for a in (s_np, t_np, gaps):
        a.setflags(write=False)
    return _Tables(
        cats, rows, s_np, t_np, s_np.tolist(), t_np.tolist(), gaps, *_gap_minimum(gaps, query.k)
    )


def _tables(query: EfGtpQuery, oracle: DistanceOracle) -> _Tables:
    """The query's tables from the oracle's one-entry memo, keyed by the
    query without its threshold; a miss builds them and replaces the entry."""
    key = (query.group, query.categories)
    memo = oracle.pair_tables  # read once: another thread may replace it
    if memo is not None and memo[0] == key:
        logger.info("pair-gap table reused")
        return memo[1]
    start = time.perf_counter()
    tables = _prepare_tables(query, oracle)
    oracle.pair_tables = (key, tables)
    logger.info(
        "pair-gap table built (%s, %.2f ms)",  # k = 1: one gap per POI
        " x ".join(map(str, tables.gaps.shape)), (time.perf_counter() - start) * 1e3,
    )
    return tables


def _fetch_chain(tables: _Tables, oracle: DistanceOracle, positions) -> list:
    """The chain legs from one more batched row fetch: the rows of the POIs
    at positions[i] of each category i < k - 1, whose rows the combinations
    through them read. legs[i][p][q] = dist(cats[i][p], cats[i + 1][q]),
    one (n_i x n_{i+1}) block per category step; entry p is None when p is
    not in positions[i]."""
    cats = tables.cats
    rows = oracle.rows(cats[i][p] for i, ps in enumerate(positions) for p in ps)
    legs, at = [], 0
    for cat, nxt, ps in zip(cats, cats[1:], positions):
        block: list[Optional[list[float]]] = [None] * len(cat)
        for p, row in zip(ps, rows[at : at + len(ps)][:, nxt].tolist()):
            block[p] = row
        legs.append(block)
        at += len(ps)
    return legs


def _gap_minimum(gaps: np.ndarray, k: int) -> tuple[float, tuple[int, ...]]:
    """The smallest pair gap and the positions of the first combination
    attaining it in enumeration order (row-major over the pair table,
    interior positions 0)."""
    first = np.unravel_index(int(np.argmin(gaps)), gaps.shape)
    return float(gaps[first]), (int(first[0]), *(0,) * (k - 2), *map(int, first[1:]))


def _combo(cats, pos: tuple[int, ...]) -> PoiCombination:
    """The combination at per-category positions pos."""
    return tuple(c[p] for c, p in zip(cats, pos))


def _table_route(query: EfGtpQuery, tables: _Tables, legs, pos: tuple[int, ...]) -> EvaluatedRoute:
    """Evaluate the combination at positions pos from the tables' end legs
    and the chain legs, so its numbers are the ones the search compared."""
    chain = [leg[p][q] for leg, p, q in zip(legs, pos, pos[1:])]
    s, t = tables.s_cols[pos[0]], tables.t_cols[pos[-1]]
    return _route(_combo(tables.cats, pos), s, chain, t, query.envy_threshold)


def _fast_solve(query: EfGtpQuery, tables: _Tables, oracle: DistanceOracle):
    """Read the feasible count and the first gap minimum off the pair-gap
    table, then fetch chain rows and search combinations only from first
    POIs with a feasible last partner (no row at all when none is). On a
    cold oracle (_should_prune), only the rows that the landmark bound
    cannot rule out are fetched and searched."""
    min_gap, witness = tables.min_gap, tables.witness
    if min_gap > query.envy_threshold:  # no pair is feasible
        return None, 0, min_gap, witness
    feasible = tables.gaps <= query.envy_threshold
    count = int(feasible.sum()) * math.prod(len(c) for c in tables.cats[1:-1])
    # first positions with a feasible last partner (k = 1: one column each)
    firsts = np.flatnonzero(feasible.reshape(len(feasible), -1).any(axis=1)).tolist()
    # the first and interior positions to walk; k = 1 reads no chain row
    positions = [firsts, *(range(len(c)) for c in tables.cats[1:-1])][: query.k - 1]
    if positions and _should_prune(query, tables, oracle, positions):
        positions = _pruned_positions(query, tables, oracle, feasible, positions)
    legs = _fetch_chain(tables, oracle, positions)
    pos = _cheapest_feasible(tables, legs, feasible, positions)
    return _table_route(query, tables, legs, pos), count, min_gap, witness


def _chain_rows(query: EfGtpQuery, tables: _Tables, positions) -> set[int]:
    """The vertices at positions, except the query's own member vertices,
    whose rows the member fetch holds."""
    members = {*query.group.sources, *query.group.destinations}
    return {cat[p] for cat, ps in zip(tables.cats, positions) for p in ps} - members


def _should_prune(
    query: EfGtpQuery, tables: _Tables, oracle: DistanceOracle, positions
) -> bool:
    """Whether to prune: the oracle holds none of the chain rows at
    positions, and more than k of them are missing. The pruned path reads
    k - 1 rows for its upper bound, and its bounds cost up to one more
    row's time (0.2-0.4 ms against 0.4 ms per row on minnesota_like), so
    with k or fewer rows missing it cannot pay for itself."""
    chain = _chain_rows(query, tables, positions)
    return len(chain) > query.k and not any(map(oracle.holds, chain))


# Elements per temporary array of the landmark bound (512 KiB of float64).
_CHUNK = 1 << 16


def _landmark_legs(a: np.ndarray, c: np.ndarray, b: int) -> np.ndarray:
    """b * max over landmarks m of |a[m, p] - c[m, q]|, shape (n_a, n_c).

    a and c hold the landmarks' distances to two POI sets, one landmark per
    row. On an undirected graph |d(m, u) - d(m, v)| <= d(u, v) (the ALT
    bound), so this bounds b times every chain leg from below."""
    out = np.zeros((a.shape[1], c.shape[1]))
    for x, y in zip(a, c):
        diff = np.subtract.outer(x, y)
        np.maximum(out, np.abs(diff, out=diff), out=out)
    return out * b


def _min_plus(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """out[i, j] = min over r of x[i, r] + y[r, j], one (i, j) plane per r."""
    out = np.full((x.shape[0], y.shape[1]), np.inf)
    for r in range(x.shape[1]):
        np.minimum(out, x[:, r, None] + y[r], out=out)
    return out


def _slack(query: EfGtpQuery, tables: _Tables, landmark_max: float, ub: float) -> float:
    """delta: how far a computed landmark bound can exceed the computed
    aggregate of a combination whose aggregate is at most ub.

    With u = 2**-53 and gamma_m = m*u/(1 - m*u), the relative error bound of
    an m-term float sum of non-negative terms (Higham, section 3.1):

    - A Dijkstra distance sums at most n - 1 weights, so it lies within
      gamma_{n-1} (relative) of the exact distance d*.
    - A landmark difference |d(m, u) - d(m, v)| is then at most d*(u, v) +
      2*gamma_{n-1}*R, where R = landmark_max bounds the landmark rows, and
      d*(u, v) is at most the computed leg d(u, v) over 1 - gamma_{n-1}.
      Summed over the k - 1 legs of b members, the exact sum of the bound's
      terms exceeds the exact sum A of the aggregate's terms by at most
      gamma_n*A + 2*gamma_n*b*(k - 1)*R.
    - The bound is a float sum with at most 2b + 2k roundings of
      non-negative terms (member sums, the subtraction, the product by b,
      the chain) and the aggregate one with k + b, so each lies within
      gamma_{2b+2k} of its exact sum.

    Together, with N = n + 2b + 2k and A <= ub*(1 + 2*gamma_N), the excess
    is below 3*gamma_N*(ub + b*(k - 1)*R); delta takes 4*gamma_N, which
    also covers rounding this formula and ub + delta.
    """
    b, k = query.b, query.k
    m = tables.members.shape[1] + 2 * b + 2 * k
    gamma = m * 2.0**-53 / (1 - m * 2.0**-53)
    return 4 * gamma * (ub + b * (k - 1) * landmark_max)


def _landmark_bounds(
    query: EfGtpQuery, tables: _Tables, landmarks: np.ndarray, firsts, lasts, pairs
) -> tuple[np.ndarray, list[np.ndarray], tuple[int, ...]]:
    """Landmark bounds from the rows landmarks, one landmark per row.

    A position's bound is the least sum(S) + b*sum(LB) + sum(T) over the
    feasible (first, last) pairs (pairs: their indices into firsts and
    lasts) and the interior paths through it. Min-plus passes over the
    (n_i x n_{i+1}) bound blocks give, per interior category, the bound
    from every first to each position (fw) and from each position to every
    last (bw). Returns the bound of each first, the bounds of each interior
    category, and the positions of the lowest-bound feasible combination.
    """
    cats, b, k = tables.cats, query.b, query.k
    fi, ki = pairs
    marks = [landmarks[:, c] for c in cats]  # (landmarks, n_i)
    marks[0], marks[-1] = marks[0][:, firsts], marks[-1][:, lasts]
    blocks = [_landmark_legs(x, y, b) for x, y in zip(marks, marks[1:])]
    blocks[0] += tables.s_np[firsts].sum(axis=1)[:, None]
    blocks[-1] += tables.t_np[lasts].sum(axis=1)
    fw, bw = blocks[:1], blocks[-1:]
    for block in blocks[1:-1]:
        fw.append(_min_plus(fw[-1], block))
    for block in reversed(blocks[1:-1]):
        bw.insert(0, _min_plus(block, bw[0]))
    # each pair's bound: its one block entry (k = 2), or the least over the
    # first interior category, filled in its pass below
    pair_bound = blocks[0][fi, ki] if k == 2 else np.empty(len(fi))
    bounds = []
    for f, g in list(zip(fw, bw))[: k - 2]:
        bound = np.full(f.shape[1], np.inf)
        step = max(1, _CHUNK // len(bound))
        for lo in range(0, len(fi), step):
            through = f[fi[lo : lo + step]] + g[:, ki[lo : lo + step]].T  # (pairs, n_j)
            np.minimum(bound, through.min(axis=0), out=bound)
            if not bounds:
                pair_bound[lo : lo + step] = through.min(axis=1)
        bounds.append(bound)
    by_pair = np.full((len(firsts), len(lasts)), np.inf)
    by_pair[fi, ki] = pair_bound
    # the lowest-bound feasible combination, its interior walked forward
    at, c = np.unravel_index(int(np.argmin(by_pair)), by_pair.shape)
    pos = [firsts[at]]
    if k > 2:
        pos.append(int(np.argmin(fw[0][at] + bw[0][:, c])))
        for block, g in zip(blocks[1:-1], bw[1:]):
            pos.append(int(np.argmin(block[pos[-1]] + g[:, c])))
    pos.append(int(lasts[c]))
    return by_pair.min(axis=1), bounds, tuple(pos)


def _pruned_positions(
    query: EfGtpQuery, tables: _Tables, oracle: DistanceOracle, feasible: np.ndarray, positions
) -> list[list[int]]:
    """The first and interior positions that the landmark bound keeps, from
    the member rows plus one fetch of k - 1 chain rows.

    The member rows bound every position (_landmark_bounds). The chain
    rows of the lowest-bound feasible combination give an upper bound ub,
    its aggregate in the pinned order. A combination whose aggregate is at
    most ub has a bound of at most ub + delta (_slack), so the optimum and
    every tie of it keep their positions. When more than those k - 1 rows
    survive, the bounds are taken again with the fetched rows as more
    landmarks; each of them bounds the legs from its own POI exactly."""
    cats, k = tables.cats, query.k
    firsts = positions[0]
    lasts = np.flatnonzero(feasible.any(axis=0))
    pairs = np.nonzero(feasible[np.ix_(firsts, lasts)])
    first_bound, bounds, pos = _landmark_bounds(query, tables, tables.members, firsts, lasts, pairs)
    combo = _combo(cats, pos)
    rows = oracle.rows(combo[:-1])
    chain = [float(row[v]) for row, v in zip(rows, combo[1:])]
    ub = _left_sum(_member_distances(tables.s_cols[pos[0]], chain, tables.t_cols[pos[-1]]))
    cut = ub + _slack(query, tables, max(float(tables.members.max()), float(rows.max())), ub)

    def within(first_bound, bounds) -> list[list[int]]:
        kept = [p for p, v in zip(firsts, first_bound.tolist()) if v <= cut]
        return [kept, *(np.flatnonzero(bound <= cut).tolist() for bound in bounds)]

    out = within(first_bound, bounds)
    if sum(map(len, out)) >= k:  # more than the k - 1 rows fetched survive
        landmarks = np.vstack([tables.members, rows])
        out = within(*_landmark_bounds(query, tables, landmarks, firsts, lasts, pairs)[:2])
    logger.info(
        "landmark bound: fetched %d of %d chain rows",
        len(_chain_rows(query, tables, out)),
        len(_chain_rows(query, tables, positions)),
    )
    return out


def _cheapest_feasible(tables: _Tables, legs, feasible: np.ndarray, positions) -> tuple[int, ...]:
    """Positions of the cheapest combination whose (first, last) pair is
    feasible (ties: first in enumeration order), among the combinations
    through the first and interior positions in positions, each in
    increasing order (k = 1: every feasible POI), read from the chain legs
    of those positions. At least one pair must be feasible."""
    s_cols, t_cols = tables.s_cols, tables.t_cols
    if len(tables.cats) == 1:  # min keeps the first of equal keys
        firsts = np.flatnonzero(feasible).tolist()
        return (min(firsts, key=lambda p: _left_sum(_member_distances(s_cols[p], (), t_cols[p]))),)
    best_agg, best_pos = math.inf, None
    *inner_legs, last_legs = legs
    firsts, *interior = positions
    for p1 in firsts:
        lasts = np.flatnonzero(feasible[p1]).tolist()
        if not lasts:
            continue
        s_col = s_cols[p1]
        for mids in itertools.product(*interior):
            # _member_distances's pinned order, inlined: each interior
            # prefix is shared by every last POI, and a kernel call per
            # combination would double the scan's cost
            vals = s_col
            prev = p1
            for leg_block, p in zip(inner_legs, mids):
                leg = leg_block[prev][p]
                vals = [x + leg for x in vals]
                prev = p
            row = last_legs[prev]
            for pk in lasts:
                leg = row[pk]
                agg = 0.0  # _left_sum, inlined
                for x, t in zip(vals, t_cols[pk]):
                    agg += (x + leg) + t
                if agg < best_agg:
                    best_agg, best_pos = agg, (p1, *mids, pk)
    return best_pos


def _faithful_solve(query: EfGtpQuery, tables: _Tables, oracle: DistanceOracle, matrix_writer):
    """Evaluate every combination in enumeration order through _route, the
    kernel of evaluate_route, and keep the feasible count, the first gap
    minimum and the first cheapest feasible route. matrix_writer, when
    given, receives every route."""
    legs = _fetch_chain(tables, oracle, [range(len(c)) for c in tables.cats[:-1]])
    total = query.categories.combination_count()
    optimal, count, min_gap, witness = None, 0, math.inf, None
    positions = itertools.product(*(range(len(c)) for c in tables.cats))
    for done, pos in enumerate(positions, start=1):
        route = _table_route(query, tables, legs, pos)
        if route.feasible:
            count += 1
            if optimal is None or route.aggregated < optimal.aggregated:
                optimal = route
        if route.max_gap < min_gap:
            min_gap, witness = route.max_gap, pos
        if matrix_writer is not None:
            matrix_writer(route)
        if done % PROGRESS_EVERY == 0:
            logger.info("evaluated %d/%d combinations", done, total)
    return optimal, count, min_gap, witness


def solve_exact(
    query: EfGtpQuery,
    oracle: DistanceOracle,
    faithful: bool = False,
    debug_matrix: Optional[IO[str]] = None,
) -> SolveOutcome:
    """Optimal feasible combination, or the minimum-slack report.

    Feasible: returns the combination minimizing aggregated distance
    (ties: lexicographically smallest per-category position tuple) plus
    the feasible-combination count. Infeasible: reports the minimum
    achievable gap, epsilon = gap - threshold, and the first witness.

    Both modes first fetch the member rows in one batched call. The
    default takes every gap from the (first, last) pair-gap table built
    from them, then fetches the chain rows of the first POIs with a
    feasible last partner and of the interior categories (none when no
    pair is feasible) and searches only those combinations. On an oracle
    that holds none of those rows, the member rows serve as landmarks
    whose lower bounds rule rows out first; two more calls at most then
    fetch the rest, with the same outcome to the bit. The member rows'
    tables are memoized on the oracle (one entry, keyed by the query
    without its threshold), so a re-solve at another threshold,
    min_additional_distance and gap_distribution of the same query reuse
    them; the chain legs are fetched per solve.
    faithful=True is the reference: it builds its tables without the
    memo, fetches every chain row and evaluates each combination through
    the route kernel of evaluate_route. The two agree bit for bit.
    faithful costs about 5x the default's search of the same combinations
    (125,000 combinations at b = 12: about 1.2 s on a shared 2-CPU x86
    host).
    debug_matrix receives one CSV row per combination (forces faithful;
    at most 1e6). Faithful solves log a tick every PROGRESS_EVERY combinations.
    """
    query.validate_against(oracle.net)
    writer_fn = None
    if debug_matrix is not None:
        total = query.categories.combination_count()
        if total > 1_000_000:
            raise CapacityError(
                f"debug matrix limited to 1e6 combinations, instance has {total}"
            )
        faithful = True
        writer_fn = _matrix_writer(debug_matrix, query, oracle.net)

    if faithful:  # the reference neither reads nor writes the memo
        tables = _prepare_tables(query, oracle)
        optimal, count, min_gap, witness = _faithful_solve(query, tables, oracle, writer_fn)
    else:
        tables = _tables(query, oracle)
        optimal, count, min_gap, witness = _fast_solve(query, tables, oracle)
    return SolveOutcome(
        optimal=optimal,
        feasible_count=count,
        min_gap=min_gap,
        min_gap_witness=_combo(tables.cats, witness),
        epsilon=0.0 if count else min_gap - query.envy_threshold,
    )


def gap_distribution(query: EfGtpQuery, oracle: DistanceOracle) -> np.ndarray:
    """Envy gaps of all (first, last) POI pairs (k = 1: one per POI).

    The array holds one unweighted entry per pair, although each pair
    stands for one combination per interior choice. Its quantiles are
    therefore quantiles over pairs, not over the combination space. The
    array is a fresh copy of the oracle's memoized table (_tables).
    """
    query.validate_against(oracle.net)
    return _tables(query, oracle).gaps.flatten()


def min_additional_distance(
    query: EfGtpQuery, oracle: DistanceOracle
) -> tuple[float, float, PoiCombination]:
    """Minimum achievable gap d, epsilon = d - threshold, and a witness.

    Only meaningful when the query has no feasible combination; calling it
    on a feasible instance raises. Re-solving with threshold + epsilon is
    guaranteed feasible, and every newly feasible combination attains d.

    d is the minimum of the pair-gap table that a fast solve_exact of the
    same query builds. The oracle keeps that table in a one-entry memo
    keyed by (query.group, query.categories), so MAD after a solve, and the
    re-solve at threshold + epsilon, build nothing; a different query
    replaces the entry.
    """
    query.validate_against(oracle.net)
    tables = _tables(query, oracle)
    d = tables.min_gap
    if d <= query.envy_threshold:  # some pair, so some combination, is feasible
        raise ValueError(
            "query already has feasible combinations; no additional distance needed"
        )
    return d, d - query.envy_threshold, _combo(tables.cats, tables.witness)


# ---------------------------------------------------------------------------
# external formats
# ---------------------------------------------------------------------------


def _matrix_writer(stream: IO[str], query: EfGtpQuery, net: RoadNetwork):
    k = query.k
    w = csv.writer(stream, lineterminator="\n")
    w.writerow([f"v{i + 1}" for i in range(k)] + ["aggregated", "max_gap", "feasible"])

    def emit(route: EvaluatedRoute):
        w.writerow(
            [net.external_ids[v] for v in route.combination]
            + [repr(route.aggregated), repr(route.max_gap), int(route.feasible)]
        )

    return emit


def _json_is(value, kind) -> bool:
    """Whether a decoded JSON value has type kind: a Python type or tuple
    of types (a bool counts as none of them), float for any number, or
    [kind] for a list whose items all have type kind."""
    if isinstance(kind, list):
        return isinstance(value, list) and all(_json_is(v, kind[0]) for v in value)
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def load_query(text: str, net: RoadNetwork) -> EfGtpQuery:
    """Parse the JSON query format (external vertex ids: strings or integers)."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("query file must hold a JSON object")
    id_list = [(str, int)]
    for key, kind, what in (
        ("sources", id_list, "a list of vertex ids"),
        ("destinations", id_list, "a list of vertex ids"),
        ("categories", [id_list], "a list of lists of vertex ids"),
        ("D", float, "a number"),
    ):
        if key not in doc:
            raise ValueError(f"query file missing {key!r}")
        if not _json_is(doc[key], kind):
            raise ValueError(f"query {key!r} must be {what}")

    members = ((f"query {key!r}", doc[key]) for key in ("sources", "destinations"))
    group = GroupSpec(*_resolve_ids(net, members))
    cats = _resolve_ids(net, (("query 'categories'", c) for c in doc["categories"]), unique=True)
    return EfGtpQuery(group, CategoryAssignment(cats), float(doc["D"]))
