"""Acceptance gate: eight checks, one printed PASS/FAIL line per criterion.

The suite is deliberately independent of the unit tests: expected values
come from a hand-written brute-force evaluator, a Floyd-Warshall matrix,
numpy linear scans and a literal math.hypot scan rather than from the
library under test.
"""

import itertools
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest

from efgtp import (
    DistanceOracle,
    EfGtpQuery,
    RoadNetwork,
    SolveOutcome,
    assign_categories,
    build_oracle,
    bulk_load,
    euclidean_gnn,
    euclidean_nn,
    europe_like,
    gap_distribution,
    generate_query,
    max_pair_gap,
    minnesota_like,
    random_geometric_network,
    solve_exact,
    solve_heuristic,
)

from support import BruteOutcome, brute_force_solve, floyd_warshall, random_network, random_query


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"\nFAIL criterion {number}: {label}")
        raise
    print(f"\nPASS criterion {number}: {label}")


@dataclass
class Case:
    net: RoadNetwork
    oracle: DistanceOracle
    query: EfGtpQuery
    brute: BruteOutcome
    exact: SolveOutcome


@pytest.fixture(scope="module")
def suite():
    """120 random instances spanning k in {1,2,3}, b in {1,2,4}, POIs/cat <= 6.

    Integer edge weights and integer thresholds keep every distance, gap,
    and epsilon exactly representable, so equality checks are bitwise.
    """
    rng = np.random.default_rng(2025)
    cases = []
    start = time.perf_counter()
    for i in range(120):
        k = (1, 2, 3)[i % 3]
        b = (1, 2, 4)[(i // 3) % 3]
        per_cat = 1 + i % 6
        n = int(rng.integers(30, 51))
        net = random_network(rng, n)
        query = random_query(rng, net, k=k, per_cat=per_cat, b=b,
                             threshold=float(rng.integers(0, 25)))
        oracle = build_oracle(net)
        brute = brute_force_solve(query, floyd_warshall(net))
        exact = solve_exact(query, oracle)
        cases.append(Case(net, oracle, query, brute, exact))
    elapsed = time.perf_counter() - start
    return cases, elapsed


def test_criterion_1_oracle_equivalence(suite):
    cases, elapsed = suite
    with criterion(1, "exhaustive solver matches brute force on 120 instances"):
        assert len(cases) >= 100
        feasible = infeasible = 0
        for c in cases:
            assert c.exact.feasible_count == c.brute.feasible_count
            if c.brute.feasible:
                feasible += 1
                assert c.exact.optimal.combination == c.brute.best_combo
                assert c.exact.optimal.aggregated == c.brute.best_aggregated
            else:
                infeasible += 1
                assert c.exact.optimal is None
                assert c.exact.min_gap == c.brute.min_gap
                assert c.exact.epsilon == c.brute.epsilon
                assert c.exact.min_gap_witness == c.brute.min_gap_combo
        assert feasible >= 20 and infeasible >= 20  # both regimes exercised
        assert elapsed < 60.0


def test_criterion_2_epsilon_correctness(suite):
    cases, _ = suite
    with criterion(2, "threshold + epsilon is exactly the feasibility boundary"):
        checked = 0
        for c in cases:
            if c.exact.feasible_count:
                continue
            checked += 1
            boundary = c.query.envy_threshold + c.exact.epsilon
            relaxed = solve_exact(c.query.with_threshold(boundary), c.oracle)
            assert relaxed.feasible_count >= 1
            assert relaxed.optimal.max_gap == c.exact.min_gap
            below = float(np.nextafter(boundary, -math.inf))
            assert solve_exact(c.query.with_threshold(below), c.oracle).feasible_count == 0
        assert checked >= 20


def test_criterion_3_monotone_sweep_curves():
    with criterion(3, "threshold sweeps: counts grow, bound + slack stays constant"):
        for make, shape in ((europe_like, (1174, 1417)), (minnesota_like, (2642, 3303))):
            net = make()
            assert (net.vertex_count, net.edge_count) == shape
            oracle = build_oracle(net)
            assignment = assign_categories(net, 2, 6, seed=31)
            query = generate_query(net, 3, assignment, D=0.0, seed=32)
            gaps = gap_distribution(query, oracle)
            d, top = float(gaps.min()), float(gaps.max())
            assert 0.0 < d < top
            thresholds = [0.25 * d, 0.5 * d, 0.75 * d, d, 0.5 * (d + top), top]
            counts, bounds = [], []
            for D in thresholds:
                out = solve_exact(query.with_threshold(D), oracle)
                counts.append(out.feasible_count)
                if out.feasible_count == 0:
                    bounds.append((D, out.epsilon, out.min_gap))
            assert counts == sorted(counts)
            assert counts[0] == 0 and counts[3] >= 1 and counts[-1] == 36
            assert len(bounds) == 3
            for D, eps, min_gap in bounds:
                assert min_gap == d  # identical scan result on the fixed instance
                assert eps == min_gap - D
                assert math.isclose(D + eps, d, rel_tol=4 * 2**-52)
            # at D = d/2 the float arithmetic is exact end to end
            half = [b for b in bounds if b[0] == 0.5 * d]
            assert len(half) == 1 and half[0][0] + half[0][1] == d


def test_criterion_4_gap_cancellation():
    with criterion(4, "pair gap ignores interior POIs; prefiltered scan = faithful"):
        rng = np.random.default_rng(404)
        for _ in range(50):
            net = random_network(rng, int(rng.integers(30, 41)))
            oracle = build_oracle(net)
            query = random_query(rng, net, k=4, per_cat=2, b=3,
                                 threshold=float(rng.integers(0, 20)))
            c1, c2, c3, c4 = query.categories.categories
            for v1, v4 in itertools.product(c1, c4):
                seen = {
                    max_pair_gap(query, (v1, a, b, v4), oracle)
                    for a, b in itertools.product(c2, c3)
                }
                assert len(seen) == 1
            fast = solve_exact(query, oracle)
            slow = solve_exact(query, oracle, faithful=True)
            assert fast.min_gap == slow.min_gap
            assert fast == slow


def test_criterion_5_heuristic_soundness(suite):
    cases, _ = suite
    with criterion(5, "greedy route is valid, never beats the optimum, fixed query budget"):
        dominated = 0
        for c in cases:
            res = solve_heuristic(c.query, c.oracle)
            cats = c.query.categories.categories
            assert len(res.combination) == c.query.k
            assert all(v in cat for v, cat in zip(res.combination, cats))
            assert res.gnn_queries == (1 if c.query.k == 1 else 2)
            assert res.nn_queries == max(c.query.k - 2, 0)
            if c.exact.feasible and res.route.feasible:
                dominated += 1
                assert res.route.aggregated >= c.exact.optimal.aggregated
        assert dominated >= 30
        # singleton categories leave no choices: both solvers must coincide
        rng = np.random.default_rng(505)
        for _ in range(20):
            net = random_network(rng, 25)
            oracle = build_oracle(net)
            q = random_query(rng, net, k=3, per_cat=1, b=2,
                             threshold=float(rng.integers(0, 30)))
            res = solve_heuristic(q, oracle)
            exact = solve_exact(q, oracle)
            assert res.route.combination == exact.min_gap_witness
            if exact.feasible:
                assert res.route == exact.optimal


def test_criterion_6_index_equivalence():
    with criterion(6, "Euclidean NN/GNN match a literal math.hypot scan to 10^4, ties forced"):
        rng = np.random.default_rng(606)

        def literal(ids, xs, ys, points):
            # math.hypot per point, summed over the points in order from 0
            # (numpy's - and + round as Python's do); ties to the smallest id
            total = np.zeros(len(ids))
            for qx, qy in points:
                total += list(map(math.hypot, (xs - qx).tolist(), (ys - qy).tolist()))
            return int(ids[total == total.min()].min())

        def check(xs, ys, make_points, nn_queries, gnn_queries):
            ids = rng.permutation(len(xs))
            index = bulk_load(zip(ids.tolist(), xs.tolist(), ys.tolist()))
            for _ in range(nn_queries):
                qx, qy = make_points(1)[0]
                assert euclidean_nn(index, qx, qy) == literal(ids, xs, ys, [(qx, qy)])
            for _ in range(gnn_queries):
                pts = make_points(int(rng.integers(1, 5)))
                assert euclidean_gnn(index, pts) == literal(ids, xs, ys, pts)

        def uniform(m):
            return (rng.random((m, 2)) * 1200 - 100).tolist()

        def grid(m, lo=-10, hi=110):
            return rng.integers(lo, hi, (m, 2)).astype(float).tolist()

        n = 10_000
        # uniform points, then an integer grid where distances tie exactly
        check(*rng.random((2, n)) * 1000, uniform, 300, 200)
        check(*rng.integers(0, 100, (2, n)).astype(float), grid, 300, 200)
        for size in list(range(1, 65)) + [100, 255, 256, 257, 1000, 4096, 9999]:
            side = math.isqrt(size) + 1
            xs, ys = rng.integers(0, side, (2, size)).astype(float)
            check(xs, ys, lambda m: grid(m, -2, side + 2), 2, 2)


def test_criterion_7_performance_sanity():
    with criterion(7, "125k-combination solve < 10 s, heuristic < 50 ms, ~linear scaling"):
        net = random_geometric_network(400, 900, seed=77)
        oracle = build_oracle(net)
        assignment = assign_categories(net, 3, 50, seed=78)
        query = generate_query(net, 12, assignment, D=1e18, seed=79)
        solve_exact(query, oracle, faithful=True)  # warm oracle rows
        start = time.perf_counter()
        out = solve_exact(query, oracle, faithful=True)
        big = time.perf_counter() - start
        assert out.feasible_count == 50**3
        assert big < 10.0

        start = time.perf_counter()
        solve_heuristic(query, oracle)
        assert time.perf_counter() - start < 0.05

        counts, times = [], []
        for per_cat in (10, 20, 40):
            a = assign_categories(net, 3, per_cat, seed=80)
            q = generate_query(net, 12, a, D=1e18, seed=81)
            solve_exact(q, oracle, faithful=True)
            best = min(
                _timed(lambda: solve_exact(q, oracle, faithful=True)) for _ in range(3)
            )
            counts.append(per_cat**3)
            times.append(best)
        slope = float(np.polyfit(np.log(counts), np.log(times), 1)[0])
        assert 0.8 <= slope <= 1.2, (slope, times)


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_8_balanced_product_maximizer():
    with criterion(8, "splitting candidates evenly maximizes the combination count"):
        for total in range(1, 13):
            for k in range(1, min(4, total) + 1):
                comps = [
                    tuple(
                        b - a
                        for a, b in zip((0,) + cuts, cuts + (total,))
                    )
                    for cuts in itertools.combinations(range(1, total), k - 1)
                ]
                best = max(math.prod(c) for c in comps)
                winners = [c for c in comps if math.prod(c) == best]
                assert winners
                for c in winners:
                    assert max(c) - min(c) <= 1
