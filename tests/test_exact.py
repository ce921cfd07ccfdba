"""Exhaustive solver against hand-derived values and literal brute force."""

import csv
import io
import itertools
import json
import logging
import math

import numpy as np
import pytest

from efgtp import (
    FULL,
    ON_DEMAND,
    CapacityError,
    CategoryAssignment,
    EfGtpQuery,
    GroupSpec,
    aggregated_distance,
    assign_categories,
    build_oracle,
    dump_query,
    enumerate_combinations,
    europe_like,
    evaluate_route,
    gap_distribution,
    generate_query,
    individual_distance,
    load_query,
    max_pair_gap,
    min_additional_distance,
    parse_edge_list,
    solve_exact,
)

from support import brute_force_solve, floyd_warshall, random_network, random_query


def unit_path(n=5):
    return parse_edge_list("\n".join(f"{i} {i + 1} 1" for i in range(n - 1)))


def query(sources, destinations, cats, D):
    return EfGtpQuery(
        group=GroupSpec(sources=tuple(sources), destinations=tuple(destinations)),
        categories=CategoryAssignment(tuple(tuple(c) for c in cats)),
        envy_threshold=D,
    )


@pytest.fixture(scope="module")
def path_oracle():
    return build_oracle(unit_path())


# the slack-construction workhorse: path 0-1-2-3-4 with dyadic weights,
# both members round-trip 0->poi->0 and 4->poi->4, so the three candidate
# POIs give envy gaps 9, 7, and 5
SLACK_TEXT = "0 1 2.75\n1 2 0.5\n2 3 0.5\n3 4 6.25"


@pytest.fixture(scope="module")
def slack_case():
    net = parse_edge_list(SLACK_TEXT)
    oracle = build_oracle(net)
    q = query([0, 4], [0, 4], [(1, 2, 3)], 3.0)
    return q, oracle


class TestRouteMetrics:
    def test_path_example(self, path_oracle):
        q = query([0, 4], [4, 0], [(1,), (3,)], 10.0)
        assert individual_distance(q, 0, (1, 3), path_oracle) == 4.0
        assert individual_distance(q, 1, (1, 3), path_oracle) == 8.0
        assert aggregated_distance(q, (1, 3), path_oracle) == 12.0
        assert max_pair_gap(q, (1, 3), path_oracle) == 4.0

    def test_degenerate_everything_at_one_vertex(self, path_oracle):
        q = query([2], [2], [(2,)], 0.0)
        assert individual_distance(q, 0, (2,), path_oracle) == 0.0
        r = evaluate_route(q, (2,), path_oracle)
        assert r.aggregated == 0.0 and r.max_gap == 0.0 and r.feasible

    def test_identical_members_share_distance(self, path_oracle):
        q = query([0, 0, 0], [4, 4, 4], [(1, 2), (3,)], 100.0)
        r = evaluate_route(q, (2, 3), path_oracle)
        assert len(set(r.per_member)) == 1
        assert r.max_gap == 0.0

    def test_single_member_gap_zero(self, path_oracle):
        q = query([0], [4], [(1, 2, 3)], 0.0)
        r = evaluate_route(q, (2,), path_oracle)
        assert r.max_gap == 0.0
        assert r.aggregated == individual_distance(q, 0, (2,), path_oracle)

    def test_duplicating_members_doubles_aggregate(self, path_oracle):
        q1 = query([0, 4], [4, 0], [(1,), (3,)], 10.0)
        q2 = query([0, 4, 0, 4], [4, 0, 4, 0], [(1,), (3,)], 10.0)
        assert aggregated_distance(q2, (1, 3), path_oracle) == 2.0 * aggregated_distance(
            q1, (1, 3), path_oracle
        )

    def test_aggregated_equals_member_sum(self):
        rng = np.random.default_rng(200)
        for _ in range(20):
            net = random_network(rng, 20)
            oracle = build_oracle(net)
            q = random_query(rng, net, k=2, per_cat=3, b=3, threshold=50.0)
            for rho in enumerate_combinations(q.categories):
                total = sum(
                    individual_distance(q, i, rho, oracle) for i in range(q.b)
                )
                assert aggregated_distance(q, rho, oracle) == total

    def test_member_index_validation(self, path_oracle):
        q = query([0], [4], [(2,)], 0.0)
        with pytest.raises(ValueError, match="member index"):
            individual_distance(q, 1, (2,), path_oracle)

    def test_combination_validation(self, path_oracle):
        q = query([0], [4], [(1, 2), (3,)], 0.0)
        with pytest.raises(ValueError, match="expected 2 POIs"):
            evaluate_route(q, (1,), path_oracle)
        with pytest.raises(ValueError, match="not in category"):
            evaluate_route(q, (3, 1), path_oracle)

    def test_feasible_iff_gap_at_most_threshold(self, path_oracle):
        q = query([0, 4], [4, 0], [(1,), (3,)], 4.0)  # gap is exactly 4
        assert evaluate_route(q, (1, 3), path_oracle).feasible
        q2 = q.with_threshold(math.nextafter(4.0, 0.0))
        assert not evaluate_route(q2, (1, 3), path_oracle).feasible


class TestPairGapIdentity:
    def test_max_minus_min_equals_pairwise_max(self):
        # holds bitwise for arbitrary floats: rounding is monotone
        rng = np.random.default_rng(201)
        for _ in range(500):
            vals = list(rng.normal(1e3, 250.0, size=int(rng.integers(1, 9))))
            literal = 0.0
            for a, b in itertools.combinations(vals, 2):
                literal = max(literal, abs(a - b))
            assert literal == max(vals) - min(vals)

    def test_gap_ignores_interior_pois(self):
        rng = np.random.default_rng(202)
        for _ in range(25):
            net = random_network(rng, 30)
            oracle = build_oracle(net)
            q = random_query(rng, net, k=4, per_cat=2, b=3, threshold=1.0)
            cats = q.categories.categories
            for v1 in cats[0]:
                for vk in cats[3]:
                    gaps = {
                        max_pair_gap(q, (v1, a, b, vk), oracle)
                        for a in cats[1]
                        for b in cats[2]
                    }
                    assert len(gaps) == 1


class TestEnumeration:
    def test_single_combination(self):
        cats = CategoryAssignment(((4,), (7,)))
        assert list(enumerate_combinations(cats)) == [(4, 7)]

    def test_product_counts(self):
        rng = np.random.default_rng(203)
        for _ in range(50):
            sizes = [int(s) for s in rng.integers(1, 5, size=int(rng.integers(1, 4)))]
            start = 0
            cats = []
            for s in sizes:
                cats.append(tuple(range(start, start + s)))
                start += s
            assignment = CategoryAssignment(tuple(cats))
            combos = list(enumerate_combinations(assignment))
            assert len(combos) == math.prod(sizes) == assignment.combination_count()
            assert len(set(combos)) == len(combos)

    def test_lexicographic_position_order(self):
        cats = CategoryAssignment(((5, 1), (9, 2, 0)))
        combos = list(enumerate_combinations(cats))
        assert combos == [(5, 9), (5, 2), (5, 0), (1, 9), (1, 2), (1, 0)]


def assert_identical(outcome, ref):
    assert outcome.feasible_count == ref.feasible_count
    assert outcome.feasible == ref.feasible
    if ref.feasible:
        assert outcome.optimal.combination == ref.best_combo
        assert outcome.optimal.aggregated == ref.best_aggregated
    else:
        assert outcome.optimal is None
    assert outcome.min_gap == ref.min_gap
    assert outcome.min_gap_witness == ref.min_gap_combo
    assert outcome.epsilon == ref.epsilon


class TestSolveExact:
    def test_matches_brute_force_all_modes(self):
        rng = np.random.default_rng(204)
        for trial in range(40):
            n = int(rng.integers(12, 51))
            net = random_network(rng, n)
            k = int(rng.integers(1, 4))
            b = int(rng.choice([1, 2, 4]))
            per_cat = int(rng.integers(1, 7))
            if k * per_cat + 2 * b > n:
                continue
            q = random_query(rng, net, k, per_cat, b, float(rng.integers(0, 30)))
            oracle = build_oracle(net)
            ref = brute_force_solve(q, floyd_warshall(net))
            fast = solve_exact(q, oracle)
            faithful = solve_exact(q, oracle, faithful=True)
            for outcome in (fast, faithful):
                assert_identical(outcome, ref)
            assert fast == faithful

    def test_forced_single_combination(self, path_oracle):
        q = query([0, 4], [4, 0], [(2,)], 100.0)
        out = solve_exact(q, path_oracle)
        assert out.feasible and out.feasible_count == 1
        assert out.optimal.combination == (2,)

    def test_infinite_threshold_reduces_to_plain_minimization(self):
        rng = np.random.default_rng(205)
        for _ in range(10):
            net = random_network(rng, 25)
            oracle = build_oracle(net)
            q = random_query(rng, net, k=2, per_cat=3, b=2, threshold=math.inf)
            out = solve_exact(q, oracle)
            assert out.feasible_count == q.categories.combination_count()
            best = min(
                (aggregated_distance(q, rho, oracle) for rho in
                 enumerate_combinations(q.categories))
            )
            assert out.optimal.aggregated == best

    def test_tie_breaks_to_first_position(self, path_oracle):
        # both POIs give aggregated 8 by symmetry; position order decides
        q = query([0, 4], [4, 0], [(3, 1)], 100.0)
        out = solve_exact(q, path_oracle)
        assert out.optimal.combination == (3,)
        q2 = query([0, 4], [4, 0], [(1, 3)], 100.0)
        assert solve_exact(q2, path_oracle).optimal.combination == (1,)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(206)
        net = random_network(rng, 30)
        oracle = build_oracle(net)
        q = random_query(rng, net, k=2, per_cat=4, b=3, threshold=0.0)
        prev_count = -1
        prev_best = math.inf
        for D in range(0, 40, 2):
            out = solve_exact(q.with_threshold(float(D)), oracle)
            assert out.feasible_count >= prev_count
            prev_count = out.feasible_count
            if out.feasible:
                assert out.optimal.aggregated <= prev_best
                prev_best = out.optimal.aggregated


@pytest.fixture(scope="module")
def europe():
    return europe_like()


def at_min_gap(net, oracle, k, cat_seed, query_seed):
    """Six POIs per category, four members, D at the smallest pair gap."""
    cats = assign_categories(net, k, 6, seed=cat_seed)
    q = generate_query(net, 4, cats, D=0.0, seed=query_seed)
    return q.with_threshold(float(gap_distribution(q, oracle).min()))


class TestNonIntegerWeights:
    """europe_like has non-integer weights, so trips and gaps round; every
    path must still take the gap from the same end-leg sums."""

    def test_fast_equals_faithful_at_gap_minimum(self, europe):
        oracle = build_oracle(europe)
        q = at_min_gap(europe, oracle, 4, 100007, 100008)
        fast = solve_exact(q, oracle)
        assert fast == solve_exact(q, oracle, faithful=True)
        assert fast.min_gap == q.envy_threshold
        assert evaluate_route(q, fast.min_gap_witness, oracle).max_gap == fast.min_gap
        assert fast.optimal.feasible and fast.optimal.max_gap <= q.envy_threshold

    def test_optimum_is_feasible_at_boundary(self, europe):
        for mode in (ON_DEMAND, FULL):
            oracle = build_oracle(europe, mode)
            q = at_min_gap(europe, oracle, 3, 5, 6)
            out = solve_exact(q, oracle)
            assert out.optimal.feasible
            assert out.optimal.max_gap <= q.envy_threshold
            assert out == solve_exact(q, oracle, faithful=True)
            assert evaluate_route(q, out.optimal.combination, oracle) == out.optimal


class TestOracleStates:
    """The solver gathers its legs from batched row fetches; what the oracle
    already holds must not change a bit of the outcome, and every leg is
    read from the row of its member endpoint or of its earlier POI."""

    def test_fresh_warm_and_full_oracles_agree(self, europe):
        warm = build_oracle(europe)
        full = build_oracle(europe, FULL)
        for k, per_cat in ((1, 20), (2, 12), (3, 6), (4, 4)):
            cats = assign_categories(europe, k, per_cat, seed=40 + k)
            for b in (1, 4):
                q = generate_query(europe, b, cats, D=0.0, seed=50 + k * b)
                min_gap = float(gap_distribution(q, build_oracle(europe)).min())
                for D in (0.0, min_gap, math.inf):
                    qd = q.with_threshold(D)
                    out = solve_exact(qd, build_oracle(europe))
                    assert repr(solve_exact(qd, warm)) == repr(out)
                    assert repr(solve_exact(qd, full)) == repr(out)
                    if out.feasible:  # europe's weights round: zero tolerance still
                        for oracle in (build_oracle(europe), warm, full):
                            got = evaluate_route(qd, out.optimal.combination, oracle)
                            assert got == out.optimal

    def test_end_leg_calls_fetch_only_member_rows(self, europe):
        # MAD, gap_distribution and a fast solve with no feasible pair read
        # only the pair-gap table, which needs only the member rows
        for k, seed in ((2, 58), (3, 61), (4, 66)):
            cats = assign_categories(europe, k, 8, seed=seed)
            q = generate_query(europe, 4, cats, D=0.0, seed=seed + 1)
            members = set(q.group.sources) | set(q.group.destinations)
            oracle = build_oracle(europe)
            d, eps, _ = min_additional_distance(q, oracle)
            assert eps == d > 0.0
            assert set(oracle._rows) == members
            oracle = build_oracle(europe)
            gap_distribution(q, oracle)
            assert set(oracle._rows) == members
            oracle = build_oracle(europe)
            assert not solve_exact(q, oracle).feasible
            assert set(oracle._rows) == members

    def test_evaluate_route_fetches_its_rows_in_one_call(self, europe, monkeypatch):
        cats = assign_categories(europe, 3, 5, seed=90)
        q = generate_query(europe, 4, cats, D=math.inf, seed=91)
        rho = tuple(cat[0] for cat in cats.categories)
        oracle = build_oracle(europe)
        calls = []
        memoize = oracle._memoize
        monkeypatch.setattr(oracle, "_memoize", lambda s: (calls.append(set(s)), memoize(s)))
        evaluate_route(q, rho, oracle)
        members = set(q.group.sources) | set(q.group.destinations)
        assert calls == [members | set(rho[:-1])]

    def test_feasible_fast_solve_fetches_feasible_firsts_and_interior(self, europe):
        for k in (2, 3, 4):
            cats = assign_categories(europe, k, 6, seed=70 + k)
            q = generate_query(europe, 4, cats, D=0.0, seed=71 + k)
            gaps = gap_distribution(q, build_oracle(europe)).reshape(6, 6)
            D = float(np.quantile(gaps, 0.1))
            feasible_firsts = {cats.categories[0][p] for p in np.flatnonzero((gaps <= D).any(axis=1))}
            assert 0 < len(feasible_firsts) < 6
            oracle = build_oracle(europe)
            assert solve_exact(q.with_threshold(D), oracle).feasible
            interior = {v for cat in cats.categories[1:-1] for v in cat}
            members = set(q.group.sources) | set(q.group.destinations)
            assert set(oracle._rows) == members | feasible_firsts | interior

    def test_faithful_and_debug_matrix_fetch_every_chain_start(self, europe):
        for k in (2, 3):
            cats = assign_categories(europe, k, 5, seed=80 + k)
            q = generate_query(europe, 4, cats, D=0.0, seed=81 + k)
            starts = {v for cat in cats.categories[:-1] for v in cat}
            members = set(q.group.sources) | set(q.group.destinations)
            for kwargs in ({"faithful": True}, {"debug_matrix": io.StringIO()}):
                oracle = build_oracle(europe)
                assert not solve_exact(q, oracle, **kwargs).feasible
                assert set(oracle._rows) == members | starts


class TestMinAdditionalDistance:
    def test_constructed_gap_set(self, slack_case):
        q, oracle = slack_case
        out = solve_exact(q, oracle)
        assert not out.feasible
        assert out.min_gap == 5.0
        assert out.epsilon == 2.0
        assert out.min_gap_witness == (3,)
        d, eps, witness = min_additional_distance(q, oracle)
        assert (d, eps, witness) == (5.0, 2.0, (3,))

    def test_relaxed_threshold_becomes_feasible(self, slack_case):
        q, oracle = slack_case
        d, eps, _ = min_additional_distance(q, oracle)
        relaxed = solve_exact(q.with_threshold(q.envy_threshold + eps), oracle)
        assert relaxed.feasible
        assert relaxed.optimal.max_gap == d
        assert relaxed.feasible_count == 1

    def test_just_below_relaxed_threshold_stays_infeasible(self, slack_case):
        q, oracle = slack_case
        d, eps, _ = min_additional_distance(q, oracle)
        tight = q.with_threshold(math.nextafter(q.envy_threshold + eps, 0.0))
        assert not solve_exact(tight, oracle).feasible

    def test_rejects_feasible_instance(self, slack_case):
        q, oracle = slack_case
        with pytest.raises(ValueError, match="already has feasible"):
            min_additional_distance(q.with_threshold(100.0), oracle)

    def test_rejects_feasible_multi_category_instance(self, europe):
        oracle = build_oracle(europe)
        q = at_min_gap(europe, oracle, 3, 5, 6)
        with pytest.raises(ValueError, match="already has feasible"):
            min_additional_distance(q, oracle)
        below = q.with_threshold(math.nextafter(q.envy_threshold, 0.0))
        assert min_additional_distance(below, oracle)[0] == q.envy_threshold

    def test_witness_attains_min_gap(self):
        rng = np.random.default_rng(207)
        hits = 0
        for _ in range(30):
            net = random_network(rng, 25)
            oracle = build_oracle(net)
            q = random_query(rng, net, k=2, per_cat=3, b=3, threshold=0.0)
            out = solve_exact(q, oracle)
            if out.feasible:
                continue
            hits += 1
            r = evaluate_route(q, out.min_gap_witness, oracle)
            assert r.max_gap == out.min_gap
        assert hits >= 5  # threshold 0 on random instances is usually infeasible


class TestGapDistribution:
    def test_matches_full_enumeration_multiset(self):
        rng = np.random.default_rng(208)
        net = random_network(rng, 25)
        oracle = build_oracle(net)
        q = random_query(rng, net, k=3, per_cat=3, b=2, threshold=1.0)
        dist = sorted(gap_distribution(q, oracle))
        full = sorted(
            evaluate_route(q, rho, oracle).max_gap
            for rho in enumerate_combinations(q.categories)
        )
        # the pair distribution repeats once per interior choice
        interior = 3
        assert len(full) == interior * len(dist)
        assert full == sorted(dist * interior)

    def test_k1_uses_only_diagonal(self):
        rng = np.random.default_rng(209)
        net = random_network(rng, 20)
        oracle = build_oracle(net)
        q = random_query(rng, net, k=1, per_cat=4, b=2, threshold=1.0)
        dist = sorted(gap_distribution(q, oracle))
        full = sorted(
            evaluate_route(q, rho, oracle).max_gap
            for rho in enumerate_combinations(q.categories)
        )
        assert dist == full


class TestDebugMatrix:
    def test_rows_mirror_evaluations(self, path_oracle):
        q = query([0, 4], [4, 0], [(1, 2), (3, 4)], 4.0)
        buf = io.StringIO()
        out = solve_exact(q, path_oracle, debug_matrix=buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert rows[0] == ["v1", "v2", "aggregated", "max_gap", "feasible"]
        combos = list(enumerate_combinations(q.categories))
        assert len(rows) == 1 + len(combos)
        net = path_oracle.net
        for row, rho in zip(rows[1:], combos):
            r = evaluate_route(q, rho, path_oracle)
            assert tuple(row[:2]) == tuple(net.external_ids[v] for v in rho)
            assert float(row[2]) == r.aggregated
            assert float(row[3]) == r.max_gap
            assert row[4] == str(int(r.feasible))
        # the emitting run returns the same outcome as the plain ones
        assert out == solve_exact(q, path_oracle)

    def test_capacity_guard(self):
        path = parse_edge_list("\n".join(f"{i} {i + 1} 1" for i in range(319)))
        oracle = build_oracle(path)
        cats = tuple(
            tuple(range(i * 101, (i + 1) * 101)) for i in range(3)
        )  # 101^3 > 1e6 combinations
        q = EfGtpQuery(
            group=GroupSpec(sources=(310,), destinations=(315,)),
            categories=CategoryAssignment(cats),
            envy_threshold=1.0,
        )
        with pytest.raises(CapacityError, match="debug matrix"):
            solve_exact(q, oracle, debug_matrix=io.StringIO())


def test_progress_logging(path_oracle, caplog):
    q = query([0, 4], [4, 0], [(1, 2), (3, 4)], 4.0)
    with caplog.at_level(logging.INFO, logger="efgtp.exact"):
        solve_exact(q, path_oracle, faithful=True, progress_every=2)
    messages = [r.message for r in caplog.records]
    assert "evaluated 2/4 combinations" in messages
    assert "evaluated 4/4 combinations" in messages


class TestQueryJson:
    def test_round_trip(self, path_oracle):
        net = path_oracle.net
        q = query([0, 4], [4, 0], [(1, 2), (3,)], 6.5)
        text = dump_query(q, net)
        again = load_query(text, net)
        assert again == q

    def test_external_ids_resolved(self):
        net = parse_edge_list("alpha beta 1\nbeta gamma 2\n")
        doc = {
            "sources": ["alpha"],
            "destinations": ["gamma"],
            "categories": [["beta"]],
            "D": 3,
        }
        q = load_query(json.dumps(doc), net)
        assert q.group.sources == (0,)
        assert q.categories.categories == ((1,),)
        assert q.envy_threshold == 3.0

    def test_missing_key(self, path_oracle):
        with pytest.raises(ValueError, match="missing 'categories'"):
            load_query('{"sources": ["0"], "destinations": ["4"], "D": 1}', path_oracle.net)

    def test_unknown_vertex(self, path_oracle):
        doc = '{"sources": ["99"], "destinations": ["4"], "categories": [["1"]], "D": 1}'
        with pytest.raises(KeyError, match="unknown vertex"):
            load_query(doc, path_oracle.net)

    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            query([0], [1], [(2,)], -1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            query([0], [1], [(2,)], math.nan)
