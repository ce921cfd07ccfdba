"""Threshold sweeps over the solvers, emitting CSV records.

A sweep fixes an instance per (k, seed) cell — category assignment plus
sampled sources/destinations — and re-solves it across the envy-threshold
grid, recording feasible counts, optimal values, minimum gaps, and wall
times. Thresholds come either from an explicit list or from quantiles of
the instance's gap distribution, which keeps sweeps meaningful across
datasets with different length units. Listing an exact and a heuristic
solver puts both answers to each instance in the same (k, D, seed) cell.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import time
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .exact import EfGtpQuery, _json_is, gap_distribution, solve_exact
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
FAITHFUL_COMBINATION_GUARD = 10_000_000


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
        if any(seed < 0 for seed in self.seeds):
            raise ValueError("config key 'seeds' must hold nonnegative integers")
        if self.d_values is not None and not all(d >= 0 for d in self.d_values):
            raise ValueError("config key 'd_values' must hold nonnegative numbers")
        unknown = set(self.solvers) - set(SOLVERS)
        if not self.solvers or unknown:
            raise ValueError(f"solvers must be a nonempty subset of {SOLVERS}")
        for key in ("k_values", "seeds", "solvers"):  # a repeat only re-runs a cell warm
            values = getattr(self, key)
            for i, v in enumerate(values):
                if v in values[:i]:
                    raise ValueError(f"config key {key!r} lists {v!r} more than once")

    @staticmethod
    def from_json(text: str) -> "SweepConfig":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("sweep config must hold a JSON object")
        defaults = {f.name: f.default for f in fields(SweepConfig)}
        unknown = set(doc) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        missing = [k for k, v in defaults.items() if v is MISSING and k not in doc]
        if missing:
            raise ValueError(f"missing config keys: {missing}")
        for key, value in doc.items():
            if value is None and defaults[key] is None:
                continue  # null leaves an optional key unset
            kind, what = _CONFIG_JSON[key]
            if not _json_is(value, kind):
                raise ValueError(f"config key {key!r} must be {what}")
            if isinstance(value, list):
                doc[key] = tuple(value)
        return SweepConfig(**doc)


# the JSON type of each config key, and its wording in errors
_CONFIG_JSON = {
    "dataset": (str, "a string"),
    "k_values": ([int], "a list of integers"),
    "per_category": (int, "an integer"),
    "b": (int, "an integer"),
    "seeds": ([int], "a list of integers"),
    "solvers": ([str], "a list of strings"),
    "coords": (str, "a string"),
    "d_values": ([float], "a list of numbers"),
    "d_quantiles": ([float], "a list of numbers"),
}


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
# the grid
# ---------------------------------------------------------------------------


def _solve(query: EfGtpQuery, solver: str, oracle: DistanceOracle) -> tuple:
    """(feasible_count, optimal_aggregated, d, epsilon, wall_time_ms) of one
    solver on one query; the time covers the solve alone."""
    start = time.perf_counter()
    if solver in ("exact", "exact-faithful"):
        out = solve_exact(query, oracle, faithful=solver == "exact-faithful")
        ms = (time.perf_counter() - start) * 1e3
        agg = out.optimal.aggregated if out.optimal is not None else None
        return out.feasible_count, agg, out.min_gap, out.epsilon, ms
    index = "euclidean" if solver == "heuristic-indexed" else None
    route = solve_heuristic(query, oracle, index=index).route
    ms = (time.perf_counter() - start) * 1e3
    # heuristic rows describe the single constructed route, not the whole space
    if route.feasible:
        return 1, route.aggregated, route.max_gap, 0.0, ms
    return 0, None, route.max_gap, route.max_gap - query.envy_threshold, ms


def run_sweep(config: SweepConfig, net: Optional[RoadNetwork] = None) -> list[SweepRecord]:
    """One record per (k, seed, D, solver); records sorted by (k, D, seed, solver).

    One on-demand oracle serves every solve. Each (k, seed) instance is
    sampled at D = 0 and re-solved across the threshold grid: the config's
    list, or the instance's distinct gap quantiles (quantiles that coincide
    give one D, so an instance can have fewer rows than d_quantiles). The
    instance is fixed across the grid, so exact-solver rows show
    non-decreasing feasible counts and constant D + epsilon on the
    infeasible prefix. With exact-faithful
    listed, a largest instance over FAITHFUL_COMBINATION_GUARD combinations
    raises CapacityError before the dataset loads.
    """
    if "exact-faithful" in config.solvers:
        k = max(config.k_values)
        total = config.per_category**k
        if total > FAITHFUL_COMBINATION_GUARD:
            raise CapacityError(
                f"exact-faithful would enumerate per_category ** k = "
                f"{config.per_category} ** {k} = {total} combinations "
                f"(> {FAITHFUL_COMBINATION_GUARD}); reduce per_category or k"
            )
    if net is None:
        net = load_network(config.dataset, config.coords)
    start = time.perf_counter()
    oracle = build_oracle(net)
    logger.info("oracle ready in %.1f ms", (time.perf_counter() - start) * 1e3)
    records = []
    for k in config.k_values:
        for seed in config.seeds:
            base = 100_003 * seed + k  # one deterministic stream per (seed, k) cell
            assignment = assign_categories(net, k, config.per_category, seed=base)
            query = generate_query(net, config.b, assignment, D=0.0, seed=base + 1)
            if config.d_values is not None:
                thresholds = config.d_values
            else:
                # coinciding quantiles name one cell: solve it once
                thresholds = dict.fromkeys(threshold_quantiles(query, oracle, config.d_quantiles))
            for D in thresholds:
                q = query.with_threshold(float(D))
                records.extend(
                    SweepRecord(
                        config.dataset, k, config.b, q.envy_threshold, seed, solver,
                        *_solve(q, solver, oracle),
                    )
                    for solver in config.solvers
                )
    records.sort(key=lambda r: (r.k, r.D, r.seed, r.solver))
    return records


# ---------------------------------------------------------------------------
# CSV serialization (fixed headers, \n endings, round-trippable floats)
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def records_to_csv(records: Sequence[SweepRecord]) -> str:
    """The sweep CSV: a header of SweepRecord's field names, then one row per record."""
    names = [f.name for f in fields(SweepRecord)]
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(names)
    w.writerows([_fmt(getattr(r, name)) for name in names] for r in records)
    return buf.getvalue()
