"""Greedy GNN/NN construction: hand cases, linear-scan oracles, dominance."""

import math

import numpy as np
import pytest

from efgtp import (
    FULL,
    ON_DEMAND,
    CategoryAssignment,
    EfGtpQuery,
    GroupSpec,
    assign_categories,
    build_oracle,
    europe_like,
    evaluate_route,
    generate_query,
    group_nearest_neighbor,
    nearest_neighbor,
    parse_edge_list,
    solve_exact,
    solve_heuristic,
)
from efgtp.heuristic import INDEX_MODES

from support import (
    brute_force_solve,
    floyd_warshall,
    linear_network_gnn,
    linear_network_nn,
    random_network,
    random_query,
)


def unit_path(n=5):
    return parse_edge_list("\n".join(f"{i} {i + 1} 1" for i in range(n - 1)))


def query(net_unused, sources, destinations, cats, D):
    return EfGtpQuery(
        group=GroupSpec(sources=tuple(sources), destinations=tuple(destinations)),
        categories=CategoryAssignment(tuple(tuple(c) for c in cats)),
        envy_threshold=D,
    )


@pytest.fixture(scope="module")
def path_oracle():
    return build_oracle(unit_path())


@pytest.fixture(scope="module")
def europe_oracles():
    """(oracle, reference rows from a second oracle) for each oracle mode."""
    net = europe_like()
    everyone = range(net.vertex_count)
    return [(build_oracle(net, m), build_oracle(net, m).rows(everyone)) for m in (ON_DEMAND, FULL)]


@pytest.fixture(scope="module")
def star_oracle():
    """Hub 0 with four equal non-integer spokes: every leaf ties with every other."""
    oracle = build_oracle(parse_edge_list("\n".join(f"0 {i} 0.7" for i in range(1, 5))))
    return oracle, oracle.rows(range(5))


class TestNearestNeighbor:
    def test_point_in_candidates(self, path_oracle):
        assert nearest_neighbor(2, [0, 2, 4], path_oracle) == 2

    def test_path_hand_case(self, path_oracle):
        assert nearest_neighbor(0, [2, 4], path_oracle) == 2

    def test_empty_candidates(self, path_oracle):
        with pytest.raises(ValueError, match="empty candidate"):
            nearest_neighbor(0, [], path_oracle)

    def test_matches_linear_scan(self, europe_oracles, star_oracle):
        rng = np.random.default_rng(300)
        checks = 0
        while checks < 1000:
            net = random_network(rng, int(rng.integers(5, 30)))
            oracle = build_oracle(net)
            ref = floyd_warshall(net)
            for _ in range(25):
                point = int(rng.integers(0, net.vertex_count))
                size = int(rng.integers(1, net.vertex_count + 1))
                cands = [int(v) for v in rng.choice(net.vertex_count, size, replace=False)]
                assert nearest_neighbor(point, cands, oracle) == linear_network_nn(
                    point, cands, ref
                )
                checks += 1
        # non-integer weights, both oracle modes, unsorted candidate lists
        for oracle, ref in europe_oracles:
            for size in (1, 10, 300):
                for _ in range(10):
                    point = int(rng.integers(0, oracle.vertex_count))
                    cands = [int(v) for v in rng.permutation(oracle.vertex_count)[:size]]
                    assert nearest_neighbor(point, cands, oracle) == linear_network_nn(
                        point, cands, ref
                    )
        oracle, ref = star_oracle
        assert ref[1, 4] == ref[1, 2]
        assert nearest_neighbor(1, [4, 2], oracle) == linear_network_nn(1, [4, 2], ref) == 2

    def test_out_of_range_candidates(self, path_oracle):
        with pytest.raises(ValueError, match=r"vertex id -1 out of range \[0, 5\)"):
            nearest_neighbor(0, [-1], path_oracle)
        with pytest.raises(ValueError, match="vertex id 5 out of range"):
            nearest_neighbor(0, [2, 5, 1], path_oracle)


class TestGroupNearestNeighbor:
    def test_single_point_identity(self, path_oracle):
        assert group_nearest_neighbor([3], [0, 3, 4], path_oracle) == 3

    def test_path_tie_prefers_smallest_id(self, path_oracle):
        # candidates 1, 2, 3 all sum to 4 for query points {0, 4}
        assert group_nearest_neighbor([0, 4], [1, 2, 3], path_oracle) == 1
        assert group_nearest_neighbor([0, 4], [3, 2], path_oracle) == 2

    def test_empty_inputs(self, path_oracle):
        with pytest.raises(ValueError, match="empty candidate"):
            group_nearest_neighbor([0], [], path_oracle)
        with pytest.raises(ValueError, match="query point"):
            group_nearest_neighbor([], [1], path_oracle)

    def test_matches_linear_scan(self, europe_oracles, star_oracle):
        rng = np.random.default_rng(301)
        checks = 0
        while checks < 1000:
            net = random_network(rng, int(rng.integers(5, 30)))
            oracle = build_oracle(net)
            ref = floyd_warshall(net)
            for _ in range(25):
                m = int(rng.integers(1, 6))
                points = [int(v) for v in rng.integers(0, net.vertex_count, size=m)]
                size = int(rng.integers(1, net.vertex_count + 1))
                cands = [int(v) for v in rng.choice(net.vertex_count, size, replace=False)]
                assert group_nearest_neighbor(points, cands, oracle) == (
                    linear_network_gnn(points, cands, ref)
                )
                checks += 1
        # non-integer weights, both oracle modes, unsorted candidate lists
        for oracle, ref in europe_oracles:
            for size in (1, 10, 300):
                for b in (1, 8):
                    for _ in range(5):
                        points = [int(v) for v in rng.integers(0, oracle.vertex_count, size=b)]
                        cands = [int(v) for v in rng.permutation(oracle.vertex_count)[:size]]
                        assert group_nearest_neighbor(points, cands, oracle) == (
                            linear_network_gnn(points, cands, ref)
                        )
        oracle, ref = star_oracle
        points = [1, 3, 1, 3, 0, 0, 1, 3]
        assert ref[points, 4].sum() == ref[points, 2].sum()
        assert group_nearest_neighbor(points, [4, 2], oracle) == (
            linear_network_gnn(points, [4, 2], ref)
        ) == 2

    def test_out_of_range_candidates(self, path_oracle):
        with pytest.raises(ValueError, match="vertex id -2 out of range"):
            group_nearest_neighbor([0], [-2, 1], path_oracle)
        with pytest.raises(ValueError, match="vertex id 9 out of range"):
            group_nearest_neighbor([0, 4], [9, 3], path_oracle)

    def test_single_point_equals_nearest_neighbor(self):
        rng = np.random.default_rng(302)
        net = random_network(rng, 25)
        oracle = build_oracle(net)
        for _ in range(50):
            p = int(rng.integers(0, 25))
            cands = [int(v) for v in rng.choice(25, int(rng.integers(1, 26)), replace=False)]
            assert group_nearest_neighbor([p], cands, oracle) == nearest_neighbor(
                p, cands, oracle
            )


class TestSolveHeuristic:
    def test_query_counts_by_k(self):
        rng = np.random.default_rng(303)
        net = random_network(rng, 40)
        oracle = build_oracle(net)
        for k, expected_gnn, expected_nn in [(1, 1, 0), (2, 2, 0), (3, 2, 1), (4, 2, 2)]:
            q = random_query(rng, net, k=k, per_cat=3, b=2, threshold=100.0)
            res = solve_heuristic(q, oracle)
            assert (res.gnn_queries, res.nn_queries) == (expected_gnn, expected_nn)

    def test_route_is_valid_combination(self):
        rng = np.random.default_rng(304)
        for _ in range(30):
            net = random_network(rng, 30)
            oracle = build_oracle(net)
            k = int(rng.integers(1, 5))
            q = random_query(rng, net, k=k, per_cat=3, b=2, threshold=10.0)
            res = solve_heuristic(q, oracle)
            assert len(res.combination) == k
            for v, cat in zip(res.combination, q.categories.categories):
                assert v in cat

    def test_chain_construction_follows_definition(self):
        rng = np.random.default_rng(305)
        for _ in range(20):
            net = random_network(rng, 35)
            oracle = build_oracle(net)
            q = random_query(rng, net, k=3, per_cat=4, b=3, threshold=10.0)
            cats = q.categories.categories
            v1 = group_nearest_neighbor(q.group.sources, cats[0], oracle)
            v2 = nearest_neighbor(v1, cats[1], oracle)
            v3 = group_nearest_neighbor(q.group.destinations, cats[2], oracle)
            assert solve_heuristic(q, oracle).combination == (v1, v2, v3)

    def test_k1_joint_endpoint_aggregation(self):
        rng = np.random.default_rng(306)
        for _ in range(20):
            net = random_network(rng, 25)
            oracle = build_oracle(net)
            ref = floyd_warshall(net)
            q = random_query(rng, net, k=1, per_cat=5, b=3, threshold=10.0)
            res = solve_heuristic(q, oracle)
            expected = linear_network_gnn(
                list(q.group.sources) + list(q.group.destinations),
                q.categories.categories[0],
                ref,
            )
            assert res.combination == (expected,)
            assert res.gnn_queries == 1 and res.nn_queries == 0

    def test_singleton_categories_match_exact(self):
        rng = np.random.default_rng(307)
        for _ in range(20):
            net = random_network(rng, 25)
            oracle = build_oracle(net)
            q = random_query(rng, net, k=3, per_cat=1, b=2, threshold=30.0)
            heur = solve_heuristic(q, oracle)
            exact = solve_exact(q, oracle)
            assert heur.route.combination == exact.min_gap_witness
            if exact.feasible:
                assert heur.route == exact.optimal

    def test_never_beats_exact_optimum(self):
        rng = np.random.default_rng(308)
        compared = 0
        for _ in range(100):
            net = random_network(rng, 30)
            oracle = build_oracle(net)
            k = int(rng.integers(1, 4))
            q = random_query(rng, net, k=k, per_cat=3, b=2,
                             threshold=float(rng.integers(5, 40)))
            heur = solve_heuristic(q, oracle)
            exact = solve_exact(q, oracle)
            if exact.feasible and heur.route.feasible:
                compared += 1
                assert heur.route.aggregated >= exact.optimal.aggregated
        assert compared >= 30

    def test_route_evaluation_matches_reference(self):
        rng = np.random.default_rng(309)
        net = random_network(rng, 25)
        oracle = build_oracle(net)
        ref = floyd_warshall(net)
        q = random_query(rng, net, k=2, per_cat=4, b=3, threshold=12.0)
        res = solve_heuristic(q, oracle)
        again = evaluate_route(q, res.combination, oracle)
        assert res.route == again
        # feasibility flag agrees with the brute-force evaluation of that combo
        brute = brute_force_solve(
            q.__class__(
                group=q.group,
                categories=CategoryAssignment(tuple((v,) for v in res.combination)),
                envy_threshold=q.envy_threshold,
            ),
            ref,
        )
        assert (brute.feasible_count == 1) == res.route.feasible

    def test_cold_solve_computes_only_the_rows_its_picks_read(self):
        # the picks read the member rows and each NN's predecessor; route
        # evaluation reads legs from those rows, plus the first POI's for k = 2
        net = europe_like()
        for k in (2, 4):
            cats = assign_categories(net, k, 10, seed=320 + k)
            q = generate_query(net, 4, cats, D=math.inf, seed=330 + k)
            oracle = build_oracle(net)
            res = solve_heuristic(q, oracle)
            members = set(q.group.sources) | set(q.group.destinations)
            assert set(oracle._rows) == members | set(res.combination[:-1])

    def test_same_result_across_oracle_modes_and_cache_states(self):
        # europe_like's weights round, so the row of v can differ from the
        # row of u in dist(u, v); every leg reads one fixed row
        net = europe_like()
        warm = build_oracle(net)
        full = build_oracle(net, FULL)
        for k in (1, 2, 3, 4):
            cats = assign_categories(net, k, 8, seed=340 + k)
            warm.rows(v for cat in cats.categories for v in cat)
            for b in (1, 4):
                q = generate_query(net, b, cats, D=math.inf, seed=350 + k * b)
                for index in INDEX_MODES:
                    fresh = solve_heuristic(q, build_oracle(net), index=index)
                    assert solve_heuristic(q, warm, index=index) == fresh
                    assert solve_heuristic(q, full, index=index) == fresh
                    for oracle in (build_oracle(net), warm, full):
                        assert evaluate_route(q, fresh.combination, oracle) == fresh.route

    def test_unknown_index_mode(self, path_oracle):
        q = query(None, [0], [4], [(2,)], 1.0)
        with pytest.raises(ValueError, match="unknown index mode"):
            solve_heuristic(q, path_oracle, index="fancy")

    def test_indexed_mode_requires_coords(self, path_oracle):
        q = query(None, [0], [4], [(2,)], 1.0)
        with pytest.raises(ValueError, match="coordinates"):
            solve_heuristic(q, path_oracle, index="euclidean")


class TestIndexedMode:
    def test_line_embedding_matches_network_mode(self):
        # vertices on a line with weights equal to coordinate gaps: network
        # distance == Euclidean distance, so both modes pick identical POIs
        rng = np.random.default_rng(310)
        for _ in range(10):
            n = 30
            gaps = rng.integers(1, 5, size=n - 1)
            xs = np.concatenate([[0.0], np.cumsum(gaps)]).astype(float)
            text = "\n".join(f"{i} {i + 1} {int(g)}" for i, g in enumerate(gaps))
            net = parse_edge_list(text).with_coords(
                np.column_stack([xs, np.zeros(n)])
            )
            oracle = build_oracle(net)
            q = random_query(rng, net, k=3, per_cat=4, b=2, threshold=20.0)
            plain = solve_heuristic(q, oracle)
            indexed = solve_heuristic(q, oracle, index="euclidean")
            assert indexed.combination == plain.combination
            assert (indexed.gnn_queries, indexed.nn_queries) == (2, 1)

    def test_indexed_route_still_uses_network_distances(self):
        rng = np.random.default_rng(311)
        net = random_network(rng, 30).with_coords(rng.random((30, 2)) * 10)
        oracle = build_oracle(net)
        q = random_query(rng, net, k=2, per_cat=4, b=2, threshold=15.0)
        res = solve_heuristic(q, oracle, index="euclidean")
        assert res.route == evaluate_route(q, res.combination, oracle)
