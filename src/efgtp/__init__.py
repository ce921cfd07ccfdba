"""Envy-constrained group trip planning over road networks.

A group of members, each with a source and destination, must visit one
POI per category in a fixed order. The library finds the combination
minimizing the group's total travel distance subject to a bound on how
much any two members' individual trips may differ, with an exhaustive
solver, a greedy GNN/NN heuristic with network or Euclidean picks,
shortest-path distance oracles, and threshold sweeps that write CSV.
"""

from .exact import (
    EfGtpQuery,
    EvaluatedRoute,
    PoiCombination,
    SolveOutcome,
    evaluate_route,
    gap_distribution,
    load_query,
    min_additional_distance,
    solve_exact,
)
from .experiments import (
    SweepConfig,
    SweepRecord,
    generate_query,
    load_network,
    records_to_csv,
    run_sweep,
    threshold_quantiles,
)
from .heuristic import (
    HeuristicResult,
    group_nearest_neighbor,
    nearest_neighbor,
    solve_heuristic,
)
from .network import (
    CategoryAssignment,
    GroupSpec,
    RoadNetwork,
    assign_categories,
    component_labels,
    format_coords,
    format_edge_list,
    is_connected,
    largest_connected_component,
    parse_coords,
    parse_edge_list,
)
from .oracle import (
    FULL,
    ON_DEMAND,
    CapacityError,
    DistanceOracle,
    build_oracle,
)
from .rtree import bulk_load, euclidean_gnn, euclidean_nn
from .synthetic import (
    europe_like,
    minnesota_like,
    random_geometric_network,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CategoryAssignment",
    "DistanceOracle",
    "EfGtpQuery",
    "EvaluatedRoute",
    "FULL",
    "GroupSpec",
    "HeuristicResult",
    "ON_DEMAND",
    "PoiCombination",
    "RoadNetwork",
    "SolveOutcome",
    "SweepConfig",
    "SweepRecord",
    "assign_categories",
    "build_oracle",
    "bulk_load",
    "component_labels",
    "euclidean_gnn",
    "euclidean_nn",
    "europe_like",
    "evaluate_route",
    "format_coords",
    "format_edge_list",
    "gap_distribution",
    "generate_query",
    "group_nearest_neighbor",
    "is_connected",
    "largest_connected_component",
    "load_network",
    "load_query",
    "min_additional_distance",
    "minnesota_like",
    "nearest_neighbor",
    "parse_coords",
    "parse_edge_list",
    "random_geometric_network",
    "records_to_csv",
    "run_sweep",
    "solve_exact",
    "solve_heuristic",
    "threshold_quantiles",
]
