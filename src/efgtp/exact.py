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
solve exploits that to scan first/last pairs, while faithful mode
evaluates every combination literally.
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


def _fetch_chain(
    query: EfGtpQuery, tables: _Tables, oracle: DistanceOracle, gaps: np.ndarray, faithful: bool
) -> None:
    """Fill tables.legs from one more batched row fetch, made after the
    pair-gap table: the rows of the first-category POIs that start a
    scanned combination, plus every interior POI, whose rows any such
    combination reads. The fast solve scans only first POIs with a
    feasible last partner and fetches nothing when no pair is feasible;
    faithful=True visits every combination and fetches every row."""
    cats = tables.cats
    if len(cats) == 1:
        return
    if faithful:
        firsts = list(range(len(cats[0])))
    else:
        firsts = np.flatnonzero((gaps <= query.envy_threshold).any(axis=1)).tolist()
        if not firsts:
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
    its numbers are the ones the scan compared."""
    chain = [leg[p][q] for leg, p, q in zip(tables.legs, pos, pos[1:])]
    s, t = tables.s_cols[pos[0]], tables.t_cols[pos[-1]]
    return _route(_combo(tables.cats, pos), s, chain, t, query.envy_threshold)


@dataclass
class _Scan:
    """What a scan found, by per-category positions."""

    feasible_count: int = 0
    best_pos: Optional[tuple[int, ...]] = None
    min_gap: float = math.inf
    min_gap_pos: Optional[tuple[int, ...]] = None


def _scan(
    query: EfGtpQuery,
    tables: _Tables,
    gaps: np.ndarray,
    faithful: bool = False,
    progress_every: int = 0,
    matrix_writer=None,
) -> _Scan:
    """Find the cheapest feasible combination, the feasible count and the
    first gap minimum (ties: enumeration order, lexicographic in positions).

    The fast scan reads the count and the minimum off the pair table and
    enumerates only combinations whose (first, last) pair is feasible.
    faithful=True visits and books every combination one by one. Both take
    each gap from the same pair table, so they agree bit for bit.
    """
    cats = tables.cats
    threshold = query.envy_threshold
    interior = cats[1:-1]
    feasible = gaps <= threshold
    out = _Scan()
    if not faithful:
        out.min_gap, out.min_gap_pos = _gap_minimum(gaps, len(cats))
        out.feasible_count = int(feasible.sum()) * math.prod(len(c) for c in interior)
        if out.feasible_count == 0:
            return out

    total = query.categories.combination_count()
    done = 0

    def book(pos, gap, agg) -> bool:
        nonlocal done
        ok = gap <= threshold
        if ok:
            out.feasible_count += 1
        if gap < out.min_gap:
            out.min_gap, out.min_gap_pos = gap, pos
        if matrix_writer is not None:
            matrix_writer(_combo(cats, pos), agg, gap, ok)
        done += 1
        if progress_every and done % progress_every == 0:
            logger.info("evaluated %d/%d combinations", done, total)
        return ok

    best_agg, best_pos = math.inf, None
    if len(cats) == 1:
        for p1, gap in enumerate(gaps.tolist()):
            if not faithful and gap > threshold:
                continue
            agg = sum(_member_distances(tables.s_cols[p1], (), tables.t_cols[p1]))
            if faithful and not book((p1,), gap, agg):
                continue
            if agg < best_agg:
                best_agg, best_pos = agg, (p1,)
    else:
        *inner_legs, last_legs = tables.legs
        t_cols = tables.t_cols
        for p1 in range(len(cats[0])):
            lasts = range(len(cats[-1])) if faithful else np.flatnonzero(feasible[p1]).tolist()
            if not lasts:
                continue
            s_col = tables.s_cols[p1]
            gap_row = gaps[p1].tolist()
            for mids in itertools.product(*(range(len(c)) for c in interior)):
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
                    if faithful and not book((p1, *mids, pk), gap_row[pk], agg):
                        continue
                    if agg < best_agg:
                        best_agg, best_pos = agg, (p1, *mids, pk)
    out.best_pos = best_pos
    return out


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

    faithful=True evaluates every combination literally; the default
    prefilters by first/last POI pairs and yields identical outcomes.
    Rows are fetched in two batched steps: the member rows, which build
    the pair-gap table, then the chain rows of the first POIs the scan
    starts from and of the interior categories. The default fetches no
    chain row when no pair is feasible; faithful fetches them all.
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
    gaps = _pair_gaps(tables)
    _fetch_chain(query, tables, oracle, gaps, faithful)
    found = _scan(query, tables, gaps, faithful, PROGRESS_EVERY, writer_fn)
    optimal = None if found.best_pos is None else _table_route(query, tables, found.best_pos)
    return SolveOutcome(
        optimal=optimal,
        feasible_count=found.feasible_count,
        min_gap=found.min_gap,
        min_gap_witness=_combo(tables.cats, found.min_gap_pos),
        epsilon=0.0 if found.feasible_count else found.min_gap - query.envy_threshold,
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

    def emit(combo, agg, gap, feasible):
        w.writerow(
            [net.external_ids[v] for v in combo] + [repr(agg), repr(gap), int(feasible)]
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
