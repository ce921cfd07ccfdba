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
from dataclasses import dataclass, field, replace
from typing import IO, Iterator, Optional

import numpy as np

from .network import CategoryAssignment, GroupSpec, RoadNetwork
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


def enumerate_combinations(categories: CategoryAssignment) -> Iterator[PoiCombination]:
    """All POI combinations, lexicographic in per-category positions."""
    return itertools.product(*categories.categories)


def validate_combination(categories: CategoryAssignment, rho: PoiCombination) -> None:
    if len(rho) != categories.k:
        raise ValueError(f"expected {categories.k} POIs, got {len(rho)}")
    for i, (v, cat) in enumerate(zip(rho, categories.categories)):
        if v not in cat:
            raise ValueError(f"POI {v} is not in category {i}")


def _member_distances(s, chain, t) -> list[float]:
    """Per-member trips in the pinned order: source leg, chain legs left to
    right, destination leg. s and t hold the per-member end legs."""
    for leg in chain:
        s = [x + leg for x in s]
    return [x + y for x, y in zip(s, t)]


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
        aggregated=sum(vals),  # left to right in member order
        max_gap=gap,
        feasible=gap <= threshold,
    )


def individual_distance(
    query: EfGtpQuery, member_index: int, rho: PoiCombination, oracle: DistanceOracle
) -> float:
    """Trip length of one member through the POI chain."""
    if not (0 <= member_index < query.b):
        raise ValueError(f"member index {member_index} out of range [0, {query.b})")
    return evaluate_route(query, rho, oracle).per_member[member_index]


def aggregated_distance(
    query: EfGtpQuery, rho: PoiCombination, oracle: DistanceOracle
) -> float:
    """Total distance over all members (sum of individual trips, member order)."""
    return evaluate_route(query, rho, oracle).aggregated


def max_pair_gap(
    query: EfGtpQuery, rho: PoiCombination, oracle: DistanceOracle
) -> float:
    """Largest pairwise difference between members' individual distances
    (the envy gap, computed from the end legs like everywhere else)."""
    return evaluate_route(query, rho, oracle).max_gap


def evaluate_route(
    query: EfGtpQuery, rho: PoiCombination, oracle: DistanceOracle
) -> EvaluatedRoute:
    """Evaluate one combination: per-member trips, total, gap, feasibility."""
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


@dataclass
class _Tables:
    """Leg lookups shared by both scans and by the reported optimum, all
    indexed by per-category positions."""

    cats: tuple[tuple[int, ...], ...]
    s_np: np.ndarray  # (n1, b): dist(source_i, first-category POI)
    t_np: np.ndarray  # (nk, b): dist(destination_i, last-category POI)
    s_cols: list[list[float]]
    t_cols: list[list[float]]
    # legs[i][p][q] = dist(cats[i][p], cats[i + 1][q]), one (n_i x n_{i+1})
    # block per category step, filled by _fetch_chain. The fast solve does
    # not fetch the rows of first POIs without a feasible last partner, so
    # their entries in the first block are None; it fills no block at all
    # when no pair is feasible.
    legs: list[list[Optional[list[float]]]] = field(default_factory=list)


def _prepare_tables(query: EfGtpQuery, oracle: DistanceOracle) -> _Tables:
    """Build the end legs from one batched fetch of the member rows, which
    is all the pair-gap table reads."""
    cats = query.categories.categories
    b = query.b
    rows = oracle.rows(itertools.chain(query.group.sources, query.group.destinations))
    s_np = rows[:b][:, cats[0]].T.copy()  # (n1, b), read from the source rows
    t_np = rows[b:][:, cats[-1]].T.copy()  # (nk, b), from the destination rows
    return _Tables(cats=cats, s_np=s_np, t_np=t_np, s_cols=s_np.tolist(), t_cols=t_np.tolist())


def _fetch_chain(tables: _Tables, oracle: DistanceOracle, firsts: list[int]) -> None:
    """Fill tables.legs from one more batched row fetch: the rows of the
    first-category POIs at positions firsts, plus every interior POI, whose
    rows any combination starting there reads."""
    cats = tables.cats
    if len(cats) == 1:
        return
    interior = cats[1:-1]
    rows = oracle.rows(itertools.chain((cats[0][p] for p in firsts), *interior))
    first_block: list[Optional[list[float]]] = [None] * len(cats[0])
    for p, row in zip(firsts, rows[: len(firsts)][:, cats[1]].tolist()):
        first_block[p] = row
    tables.legs = [first_block]
    at = len(firsts)
    for cat, nxt in zip(interior, cats[2:]):
        tables.legs.append(rows[at : at + len(cat)][:, nxt].tolist())
        at += len(cat)


def _pair_gaps(tables: _Tables) -> np.ndarray:
    """Envy gap per (first POI, last POI) pair, shape (n1, nk); for k = 1
    each POI is its own pair, shape (n1,)."""
    if len(tables.cats) == 1:
        return _end_gap(tables.s_np, tables.t_np)
    return _end_gap(tables.s_np[:, None, :], tables.t_np[None, :, :])


def _gap_minimum(gaps: np.ndarray, k: int) -> tuple[float, tuple[int, ...]]:
    """The smallest pair gap and the positions of the first combination
    attaining it in enumeration order (row-major over the pair table,
    interior positions 0)."""
    first = np.unravel_index(int(np.argmin(gaps)), gaps.shape)
    return float(gaps[first]), (int(first[0]), *(0,) * (k - 2), *map(int, first[1:]))


def _combo(cats, pos: tuple[int, ...]) -> PoiCombination:
    """The combination at per-category positions pos."""
    return tuple(c[p] for c, p in zip(cats, pos))


def _table_route(query: EfGtpQuery, tables: _Tables, pos: tuple[int, ...]) -> EvaluatedRoute:
    """Evaluate the combination at positions pos from the tables' legs, so
    its numbers are the ones the search compared."""
    chain = [leg[p][q] for leg, p, q in zip(tables.legs, pos, pos[1:])]
    s, t = tables.s_cols[pos[0]], tables.t_cols[pos[-1]]
    return _route(_combo(tables.cats, pos), s, chain, t, query.envy_threshold)


def _fast_solve(query: EfGtpQuery, tables: _Tables, oracle: DistanceOracle):
    """Read the feasible count and the first gap minimum off the pair-gap
    table, then fetch chain rows and search combinations only from first
    POIs with a feasible last partner (no row at all when none is)."""
    gaps = _pair_gaps(tables)
    min_gap, witness = _gap_minimum(gaps, query.k)
    feasible = gaps <= query.envy_threshold
    count = int(feasible.sum()) * math.prod(len(c) for c in tables.cats[1:-1])
    if count == 0:
        return None, 0, min_gap, witness
    # first positions with a feasible last partner (k = 1: one column each)
    firsts = np.flatnonzero(feasible.reshape(len(feasible), -1).any(axis=1)).tolist()
    _fetch_chain(tables, oracle, firsts)
    optimal = _table_route(query, tables, _cheapest_feasible(tables, feasible))
    return optimal, count, min_gap, witness


def _cheapest_feasible(tables: _Tables, feasible: np.ndarray) -> tuple[int, ...]:
    """Positions of the cheapest combination whose (first, last) pair is
    feasible (ties: first in enumeration order); at least one pair must be."""
    s_cols, t_cols = tables.s_cols, tables.t_cols
    if len(tables.cats) == 1:  # min keeps the first of equal keys
        firsts = np.flatnonzero(feasible).tolist()
        return (min(firsts, key=lambda p: sum(_member_distances(s_cols[p], (), t_cols[p]))),)
    best_agg, best_pos = math.inf, None
    *inner_legs, last_legs = tables.legs
    interior = [range(len(c)) for c in tables.cats[1:-1]]
    for p1, feasible_row in enumerate(feasible):
        lasts = np.flatnonzero(feasible_row).tolist()
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
                agg = sum([(x + leg) + t for x, t in zip(vals, t_cols[pk])])
                if agg < best_agg:
                    best_agg, best_pos = agg, (p1, *mids, pk)
    return best_pos


def _faithful_solve(query: EfGtpQuery, tables: _Tables, oracle: DistanceOracle, matrix_writer):
    """Evaluate every combination in enumeration order through _route, the
    kernel of evaluate_route, and keep the feasible count, the first gap
    minimum and the first cheapest feasible route. matrix_writer, when
    given, receives every route."""
    _fetch_chain(tables, oracle, list(range(len(tables.cats[0]))))
    total = query.categories.combination_count()
    optimal, count, min_gap, witness = None, 0, math.inf, None
    positions = itertools.product(*(range(len(c)) for c in tables.cats))
    for done, pos in enumerate(positions, start=1):
        route = _table_route(query, tables, pos)
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
    pair is feasible) and searches only those combinations.
    faithful=True is the reference: it fetches every chain row and
    evaluates each combination through the route kernel of
    evaluate_route. The two agree bit for bit. faithful costs about 5x
    the default's search of the same combinations (125,000 combinations
    at b = 12: about 1.2 s on a shared 2-CPU x86 host).
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

    tables = _prepare_tables(query, oracle)
    if faithful:
        optimal, count, min_gap, witness = _faithful_solve(query, tables, oracle, writer_fn)
    else:
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
    therefore quantiles over pairs, not over the combination space.
    """
    query.validate_against(oracle.net)
    return _pair_gaps(_prepare_tables(query, oracle)).ravel()


def min_additional_distance(
    query: EfGtpQuery, oracle: DistanceOracle
) -> tuple[float, float, PoiCombination]:
    """Minimum achievable gap d, epsilon = d - threshold, and a witness.

    Only meaningful when the query has no feasible combination; calling it
    on a feasible instance raises. Re-solving with threshold + epsilon is
    guaranteed feasible, and every newly feasible combination attains d.
    """
    query.validate_against(oracle.net)
    tables = _prepare_tables(query, oracle)
    gaps = _pair_gaps(tables)
    if (gaps <= query.envy_threshold).any():
        raise ValueError(
            "query already has feasible combinations; no additional distance needed"
        )
    d, pos = _gap_minimum(gaps, query.k)
    return d, d - query.envy_threshold, _combo(tables.cats, pos)


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

    def to_internal(values):
        return tuple(net.internal_id(str(v)) for v in values)

    group = GroupSpec(
        sources=to_internal(doc["sources"]),
        destinations=to_internal(doc["destinations"]),
    )
    categories = CategoryAssignment(
        tuple(to_internal(cat) for cat in doc["categories"])
    )
    return EfGtpQuery(
        group=group, categories=categories, envy_threshold=float(doc["D"])
    )


def dump_query(query: EfGtpQuery, net: RoadNetwork) -> str:
    ext = net.external_ids
    doc = {
        "sources": [ext[v] for v in query.group.sources],
        "destinations": [ext[v] for v in query.group.destinations],
        "categories": [[ext[v] for v in cat] for cat in query.categories.categories],
        "D": query.envy_threshold,
    }
    return json.dumps(doc, indent=2) + "\n"
