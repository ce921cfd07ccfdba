"""Greedy route construction via group-nearest-neighbor chaining.

Builds a POI combination in one forward pass: the first POI is the GNN of
the sources within category 1, each interior POI is the NN of its
predecessor, and the last POI is the GNN of the destinations — two GNN
queries and max(k - 2, 0) NN queries total. The result is evaluated with
the same machinery as the exhaustive solver; feasibility against the envy
threshold is reported, never enforced.

Network picks read CategoryAssignment.sorted_ids, built once per
assignment, so a repeated solve of the same query does not re-convert its
categories; Euclidean picks read the category tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import rtree  # picks read as rtree.* at call time, where the traced benchmark wraps them
from .exact import EfGtpQuery, EvaluatedRoute, evaluate_route
from .oracle import DistanceOracle
from .rtree import bulk_load

INDEX_MODES = (None, "euclidean")


@dataclass(frozen=True)
class HeuristicResult:
    """Constructed route plus the query-count bookkeeping."""

    route: EvaluatedRoute
    gnn_queries: int
    nn_queries: int

    @property
    def combination(self) -> tuple[int, ...]:
        return self.route.combination


def _pick(points: Sequence[int], candidates: Sequence[int], oracle: DistanceOracle) -> int:
    """Candidate minimizing the summed network distance to points.

    The sum starts from 0 and adds the points' rows in the given order;
    ties break to the smallest id. Every candidate id is range-checked.
    Candidates may come in any order and are never written: the pick sorts
    a copy with numpy's stable sort, one linear pass when they already
    ascend, as CategoryAssignment.sorted_ids do.
    """
    if not len(candidates):
        raise ValueError("empty candidate set")
    if not len(points):
        raise ValueError("empty query point list")
    cands = np.sort(candidates, kind="stable")
    oracle._check(int(cands[0]))
    oracle._check(int(cands[-1]))
    oracle.prefetch(points)  # cold rows in one Dijkstra call
    total = 0.0
    for p in points:
        total = total + oracle.row(p)[cands]
    return int(cands[total.argmin()])


def nearest_neighbor(
    point: int, candidates: Sequence[int], oracle: DistanceOracle
) -> int:
    """Candidate closest to point by network distance; ties -> smallest id."""
    return _pick((point,), candidates, oracle)


def group_nearest_neighbor(
    points: Sequence[int], candidates: Sequence[int], oracle: DistanceOracle
) -> int:
    """Candidate minimizing the summed network distance to all points.

    The sum runs in the given point order; ties break to the smallest id.
    With a single point this coincides with nearest_neighbor.
    """
    return _pick(points, candidates, oracle)


def _category_points(oracle: DistanceOracle, cat: Sequence[int]) -> list[rtree.Entry]:
    coords = oracle.net.coords
    return bulk_load([(v, coords[v, 0], coords[v, 1]) for v in cat])


def solve_heuristic(
    query: EfGtpQuery,
    oracle: DistanceOracle,
    index: Optional[str] = None,
) -> HeuristicResult:
    """One-pass greedy route: GNN, chained NNs, GNN.

    index=None picks every POI by network distance; index="euclidean"
    picks by Euclidean distance over vertex coordinates, one linear scan
    per pick (requires coordinates on the network). Either way the
    returned route is evaluated with network distances, so the two modes
    are comparable.

    k = 1 degenerates to a single joint GNN over sources and destinations
    together (reported as gnn_queries = 1).
    """
    query.validate_against(oracle.net)
    if index not in INDEX_MODES:
        raise ValueError(f"unknown index mode {index!r}; expected one of {INDEX_MODES}")
    cats = query.categories.categories
    k = len(cats)
    sources = query.group.sources
    destinations = query.group.destinations

    if index == "euclidean":
        coords = oracle.net.coords
        if coords is None:
            raise ValueError("indexed mode requires vertex coordinates")

        def gnn(points, cat):
            return rtree.euclidean_gnn(
                _category_points(oracle, cat), [(coords[v, 0], coords[v, 1]) for v in points]
            )

        def nn(point, cat):
            return rtree.euclidean_nn(
                _category_points(oracle, cat), coords[point, 0], coords[point, 1]
            )
    else:
        cats = query.categories.sorted_ids  # built once per assignment
        oracle.prefetch(sources + destinations)  # every member row in one Dijkstra call

        def gnn(points, cat):
            return group_nearest_neighbor(points, cat, oracle)

        def nn(point, cat):
            return nearest_neighbor(point, cat, oracle)

    if k == 1:
        combo = [gnn(sources + destinations, cats[0])]
    else:
        combo = [gnn(sources, cats[0])]
        for cat in cats[1:-1]:
            combo.append(nn(combo[-1], cat))
        combo.append(gnn(destinations, cats[-1]))

    route = evaluate_route(query, tuple(combo), oracle)
    return HeuristicResult(route=route, gnn_queries=min(k, 2), nn_queries=max(k - 2, 0))
