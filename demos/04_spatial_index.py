"""Index network coordinates and run Euclidean point/group lookups."""

import math

from efgtp import (
    assign_categories,
    build_oracle,
    bulk_load,
    euclidean_gnn,
    euclidean_nn,
    generate_query,
    random_geometric_network,
    solve_heuristic,
)


def main():
    net = random_geometric_network(1174, 1417, seed=1)
    xs, ys = net.coords[:, 0], net.coords[:, 1]
    index = bulk_load(
        (v, float(xs[v]), float(ys[v])) for v in range(net.vertex_count)
    )
    print(f"indexed {len(index)} points")

    q = (2500.0, 2500.0)
    hit = euclidean_nn(index, *q)
    print(f"\nnearest vertex to {q}: {hit} at ({xs[hit]:.0f}, {ys[hit]:.0f}), "
          f"distance {math.hypot(xs[hit] - q[0], ys[hit] - q[1]):.1f}")

    group = [(1000.0, 1000.0), (9000.0, 1500.0), (5000.0, 9000.0)]
    meet = euclidean_gnn(index, group)
    total = sum(math.hypot(xs[meet] - x, ys[meet] - y) for x, y in group)
    print(f"best meeting vertex for {len(group)} scattered points: {meet} "
          f"(summed distance {total:.1f})")

    # the same scans back the indexed variant of the greedy solver
    oracle = build_oracle(net)
    assignment = assign_categories(net, 3, 15, seed=5)
    query = generate_query(net, 3, assignment, D=1e9, seed=6)
    plain = solve_heuristic(query, oracle)
    indexed = solve_heuristic(query, oracle, index="euclidean")
    print(f"\ngreedy POIs via network distances:   {plain.combination}")
    print(f"greedy POIs via Euclidean index:     {indexed.combination}")
    print(f"route lengths: {plain.route.aggregated:.1f} vs "
          f"{indexed.route.aggregated:.1f} (both evaluated on the road network)")


if __name__ == "__main__":
    main()
