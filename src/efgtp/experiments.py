"""Sweep and benchmark harness over the solvers, emitting CSV records.

A sweep fixes an instance per (k, seed) cell — category assignment plus
sampled sources/destinations — and re-solves it across the envy-threshold
grid, recording feasible counts, optimal values, minimum gaps, and wall
times. Thresholds come either from an explicit list or from quantiles of
the instance's gap distribution, which keeps sweeps meaningful across
datasets with different length units. A bench run compares the exact
optimum against the heuristic route on the same instances.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .exact import EfGtpQuery, gap_distribution, solve_exact
from .heuristic import solve_heuristic
from .network import (
    CategoryAssignment,
    GroupSpec,
    RoadNetwork,
    assign_categories,
    is_connected,
    largest_connected_component,
    parse_coords,
    parse_edge_list,
)
from .oracle import CapacityError, DistanceOracle, build_oracle

logger = logging.getLogger(__name__)

SOLVERS = ("exact", "exact-faithful", "heuristic", "heuristic-indexed")
BENCH_COMBINATION_GUARD = 10_000_000


@dataclass(frozen=True)
class SweepConfig:
    """Grid description: dataset, instance shape, thresholds, solver set."""

    dataset: str
    k_values: tuple[int, ...]
    per_category: int
    b: int
    seeds: tuple[int, ...]
    solvers: tuple[str, ...] = ("exact",)
    coords: Optional[str] = None
    d_values: Optional[tuple[float, ...]] = None
    d_quantiles: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if (self.d_values is None) == (self.d_quantiles is None):
            raise ValueError("exactly one of d_values / d_quantiles must be set")
        grid = self.d_values if self.d_values is not None else self.d_quantiles
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("threshold grid must be nonempty and strictly increasing")
        if self.d_quantiles is not None and not all(0 <= q <= 1 for q in grid):
            raise ValueError("quantiles must lie in [0, 1]")
        if self.per_category < 1 or self.b < 1:
            raise ValueError("per_category and b must be positive")
        if not self.k_values or any(k < 1 for k in self.k_values):
            raise ValueError("k values must be positive")
        if not self.seeds:
            raise ValueError("at least one seed is required")
        unknown = set(self.solvers) - set(SOLVERS)
        if not self.solvers or unknown:
            raise ValueError(f"solvers must be a nonempty subset of {SOLVERS}")

    @staticmethod
    def from_json(text: str) -> "SweepConfig":
        doc = json.loads(text)
        known = {f.name for f in fields(SweepConfig)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key in ("k_values", "seeds", "solvers", "d_values", "d_quantiles"):
            if doc.get(key) is not None:
                doc[key] = tuple(doc[key])
        return SweepConfig(**doc)

    def to_json(self) -> str:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        return json.dumps({k: v for k, v in doc.items() if v is not None}, indent=2) + "\n"


@dataclass(frozen=True)
class SweepRecord:
    dataset: str
    k: int
    b: int
    D: float
    seed: int
    solver: str
    feasible_count: int
    optimal_aggregated: Optional[float]
    d: float
    epsilon: float
    wall_time_ms: float


@dataclass(frozen=True)
class BenchRecord:
    dataset: str
    k: int
    b: int
    D: float
    seed: int
    exact_aggregated: Optional[float]
    heuristic_aggregated: float
    heuristic_feasible: bool
    ratio: Optional[float]
    exact_time_ms: float
    heuristic_time_ms: float


# ---------------------------------------------------------------------------
# instance construction
# ---------------------------------------------------------------------------


def generate_query(
    net: RoadNetwork,
    b: int,
    assignment: CategoryAssignment,
    D: float,
    seed: int,
) -> EfGtpQuery:
    """Sample b sources and b destinations (without replacement, seeded).

    Vertices outside the category POIs are preferred; if fewer than 2b
    such vertices exist, sampling falls back to the whole vertex set.
    """
    if b < 1:
        raise ValueError(f"group size must be positive, got {b}")
    poi = {v for cat in assignment.categories for v in cat}
    pool = np.array([v for v in range(net.vertex_count) if v not in poi], dtype=np.int64)
    if len(pool) < 2 * b:
        pool = np.arange(net.vertex_count, dtype=np.int64)
    if len(pool) < 2 * b:
        raise ValueError(
            f"insufficient vertices: need {2 * b} endpoints, network has {net.vertex_count}"
        )
    picks = np.random.default_rng(seed).choice(pool, size=2 * b, replace=False)
    group = GroupSpec(
        sources=tuple(int(v) for v in picks[:b]),
        destinations=tuple(int(v) for v in picks[b:]),
    )
    return EfGtpQuery(group=group, categories=assignment, envy_threshold=float(D))


def threshold_quantiles(
    query: EfGtpQuery, oracle: DistanceOracle, quantiles: Sequence[float]
) -> tuple[float, ...]:
    """Envy thresholds at the given quantiles of the instance's pair gaps
    (gap_distribution: one unweighted entry per (first, last) POI pair)."""
    gaps = gap_distribution(query, oracle)
    return tuple(float(np.quantile(gaps, q)) for q in quantiles)


def _instance_seed(seed: int, k: int) -> int:
    return 100_003 * seed + k  # one deterministic stream per (seed, k) cell


def _instances(config: SweepConfig, net: RoadNetwork, oracle: DistanceOracle):
    """(k, seed, query, thresholds) for each grid cell, in (k, seed) order.

    The query is sampled at D = 0; thresholds come from the config's list or
    from the instance's gap quantiles.
    """
    for k in config.k_values:
        for seed in config.seeds:
            base = _instance_seed(seed, k)
            assignment = assign_categories(net, k, config.per_category, seed=base)
            query = generate_query(net, config.b, assignment, D=0.0, seed=base + 1)
            if config.d_values is not None:
                thresholds = config.d_values
            else:
                thresholds = threshold_quantiles(query, oracle, config.d_quantiles)
            yield k, seed, query, thresholds


def load_network(dataset: str, coords: Optional[str] = None) -> RoadNetwork:
    """Read an edge list (plus optional coordinates), keep the largest component."""
    net = parse_edge_list(Path(dataset).read_text())
    if coords is not None:
        net = net.with_coords(parse_coords(Path(coords).read_text(), net))
    if not is_connected(net):
        before = net.vertex_count
        net = largest_connected_component(net)
        logger.info(
            "dataset %s disconnected: kept %d of %d vertices", dataset, net.vertex_count, before
        )
    return net


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _solve_cell(
    query: EfGtpQuery, solver: str, oracle: DistanceOracle
) -> tuple[int, Optional[float], float, float, float]:
    """(feasible_count, optimal_aggregated, d, epsilon, wall_time_ms) for one cell."""
    start = time.perf_counter()
    if solver in ("exact", "exact-faithful"):
        out = solve_exact(query, oracle, faithful=solver == "exact-faithful")
        elapsed = (time.perf_counter() - start) * 1e3
        agg = out.optimal.aggregated if out.optimal is not None else None
        return out.feasible_count, agg, out.min_gap, out.epsilon, elapsed
    res = solve_heuristic(
        query, oracle, index="euclidean" if solver == "heuristic-indexed" else None
    )
    elapsed = (time.perf_counter() - start) * 1e3
    route = res.route
    # heuristic rows describe the single constructed route, not the whole space
    feasible_count = 1 if route.feasible else 0
    agg = route.aggregated if route.feasible else None
    eps = 0.0 if route.feasible else route.max_gap - query.envy_threshold
    return feasible_count, agg, route.max_gap, eps, elapsed


def run_sweep(config: SweepConfig, net: Optional[RoadNetwork] = None) -> list[SweepRecord]:
    """One record per (k, seed, D, solver); records sorted by (k, D, seed, solver).

    The (k, seed) instance is fixed across the threshold grid, so exact-solver
    rows show non-decreasing feasible counts and constant D + epsilon on the
    infeasible prefix.
    """
    if net is None:
        net = load_network(config.dataset, config.coords)
    start = time.perf_counter()
    oracle = build_oracle(net)
    logger.info("oracle ready in %.1f ms", (time.perf_counter() - start) * 1e3)

    records = []
    for k, seed, query, thresholds in _instances(config, net, oracle):
        for D in thresholds:
            q = query.with_threshold(float(D))
            for solver in config.solvers:
                count, agg, d, eps, ms = _solve_cell(q, solver, oracle)
                records.append(
                    SweepRecord(
                        dataset=config.dataset,
                        k=k,
                        b=config.b,
                        D=float(D),
                        seed=seed,
                        solver=solver,
                        feasible_count=count,
                        optimal_aggregated=agg,
                        d=d,
                        epsilon=eps,
                        wall_time_ms=ms,
                    )
                )
    records.sort(key=lambda r: (r.k, r.D, r.seed, r.solver))
    return records


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def compare_solvers(
    config: SweepConfig, net: Optional[RoadNetwork] = None
) -> list[BenchRecord]:
    """Exact-vs-heuristic rows per (k, seed, D), run serially for clean timing.

    The heuristic variant is indexed when the config lists heuristic-indexed
    (and no plain heuristic); the ratio column is blank unless both the exact
    optimum exists and the heuristic route is feasible.
    """
    if net is None:
        net = load_network(config.dataset, config.coords)
    guard = config.per_category ** max(config.k_values)
    if guard > BENCH_COMBINATION_GUARD:
        raise CapacityError(
            f"bench instance would enumerate {guard} combinations "
            f"(> {BENCH_COMBINATION_GUARD}); reduce per_category or k"
        )
    oracle = build_oracle(net)
    index = (
        "euclidean"
        if "heuristic-indexed" in config.solvers and "heuristic" not in config.solvers
        else None
    )
    records = []
    for k, seed, query, thresholds in _instances(config, net, oracle):
        for D in thresholds:
            q = query.with_threshold(float(D))
            start = time.perf_counter()
            exact_out = solve_exact(q, oracle)
            exact_ms = (time.perf_counter() - start) * 1e3
            start = time.perf_counter()
            heur = solve_heuristic(q, oracle, index=index)
            heur_ms = (time.perf_counter() - start) * 1e3
            exact_agg = (
                exact_out.optimal.aggregated if exact_out.optimal is not None else None
            )
            route = heur.route
            ratio = (
                route.aggregated / exact_agg
                if exact_agg is not None and route.feasible
                else None
            )
            records.append(
                BenchRecord(
                    dataset=config.dataset,
                    k=k,
                    b=config.b,
                    D=float(D),
                    seed=seed,
                    exact_aggregated=exact_agg,
                    heuristic_aggregated=route.aggregated,
                    heuristic_feasible=route.feasible,
                    ratio=ratio,
                    exact_time_ms=exact_ms,
                    heuristic_time_ms=heur_ms,
                )
            )
    records.sort(key=lambda r: (r.k, r.D, r.seed))
    return records


# ---------------------------------------------------------------------------
# CSV serialization (fixed headers, \n endings, round-trippable floats)
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


_PARSERS = {
    "str": str,
    "int": int,
    "float": float,
    "Optional[float]": lambda s: float(s) if s else None,
    "bool": lambda s: bool(int(s)),
}


def _csv_codec(cls, kind: str):
    """(to_csv, from_csv) for a record dataclass; the header is its field
    names in order, and each cell is parsed by its field's annotation."""
    names = [f.name for f in fields(cls)]
    parsers = [_PARSERS[f.type] for f in fields(cls)]

    def to_csv(records: Sequence[cls]) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(names)
        w.writerows([_fmt(getattr(r, name)) for name in names] for r in records)
        return buf.getvalue()

    def from_csv(text: str) -> list[cls]:
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != names:
            raise ValueError(f"unrecognized {kind} CSV header")
        out = []
        for i, row in enumerate(rows[1:], start=1):
            if len(row) != len(names):
                raise ValueError(
                    f"{kind} CSV record {i} has {len(row)} fields, expected {len(names)}"
                )
            out.append(cls(*(parse(v) for parse, v in zip(parsers, row))))
        return out

    return to_csv, from_csv


records_to_csv, records_from_csv = _csv_codec(SweepRecord, "sweep")
bench_to_csv, bench_from_csv = _csv_codec(BenchRecord, "bench")
