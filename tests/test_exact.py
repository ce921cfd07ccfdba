"""Exhaustive solver against hand-derived values and literal brute force."""

import csv
import io
import itertools
import json
import logging
import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import efgtp.exact
import efgtp.rtree
from efgtp import (
    FULL,
    ON_DEMAND,
    CapacityError,
    CategoryAssignment,
    EfGtpQuery,
    GroupSpec,
    assign_categories,
    build_oracle,
    bulk_load,
    euclidean_gnn,
    europe_like,
    evaluate_route,
    gap_distribution,
    generate_query,
    load_query,
    min_additional_distance,
    parse_edge_list,
    random_geometric_network,
    solve_exact,
)

from support import (
    brute_force_solve,
    floyd_warshall,
    left_sum,
    linear_gnn,
    random_network,
    random_query,
)


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
        r = evaluate_route(q, (1, 3), path_oracle)
        assert r.per_member == (4.0, 8.0)
        assert r.aggregated == 12.0
        assert r.max_gap == 4.0

    def test_degenerate_everything_at_one_vertex(self, path_oracle):
        q = query([2], [2], [(2,)], 0.0)
        r = evaluate_route(q, (2,), path_oracle)
        assert r.per_member == (0.0,)
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
        assert r.aggregated == r.per_member[0]

    def test_duplicating_members_doubles_aggregate(self, path_oracle):
        q1 = query([0, 4], [4, 0], [(1,), (3,)], 10.0)
        q2 = query([0, 4, 0, 4], [4, 0, 4, 0], [(1,), (3,)], 10.0)
        r1 = evaluate_route(q1, (1, 3), path_oracle)
        assert evaluate_route(q2, (1, 3), path_oracle).aggregated == 2.0 * r1.aggregated

    def test_aggregated_equals_member_sum(self):
        rng = np.random.default_rng(200)
        for _ in range(20):
            net = random_network(rng, 20)
            oracle = build_oracle(net)
            q = random_query(rng, net, k=2, per_cat=3, b=3, threshold=50.0)
            for rho in itertools.product(*q.categories.categories):
                r = evaluate_route(q, rho, oracle)
                assert len(r.per_member) == q.b
                assert r.aggregated == left_sum(r.per_member)

    def test_combination_validation(self, path_oracle):
        q = query([0], [4], [(1, 2), (3,)], 0.0)
        with pytest.raises(ValueError, match=r"^expected 2 POIs, got 1$"):
            evaluate_route(q, (1,), path_oracle)
        with pytest.raises(ValueError, match=r"^POI 3 is not in category 0$"):
            evaluate_route(q, (3, 1), path_oracle)  # each POI in the other category
        with pytest.raises(ValueError, match=r"^POI 4 is not in category 1$"):
            evaluate_route(q, (2, 4), path_oracle)  # 4 is in no category

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
                        evaluate_route(q, (v1, a, b, vk), oracle).max_gap
                        for a in cats[1]
                        for b in cats[2]
                    }
                    assert len(gaps) == 1


class TestEnumeration:
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
            combos = list(itertools.product(*assignment.categories))
            assert len(combos) == math.prod(sizes) == assignment.combination_count()
            assert len(set(combos)) == len(combos)


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
                evaluate_route(q, rho, oracle).aggregated
                for rho in itertools.product(*q.categories.categories)
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


def neumaier_sum(values):
    """Builtin sum over floats as compensated from Python 3.12 on (Neumaier)."""
    total = comp = 0.0
    for v in values:
        t = total + v
        comp += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + comp


def test_sums_stay_left_to_right_under_a_compensated_sum(monkeypatch):
    """The README's contract sums left to right; a compensated builtin sum
    must not change a bit of what the solver or the Euclidean pick gives."""
    monkeypatch.setattr(efgtp.exact, "sum", neumaier_sum, raising=False)
    monkeypatch.setattr(efgtp.rtree, "sum", neumaier_sum, raising=False)
    net = random_geometric_network(60, 120, seed=9)
    cats = assign_categories(net, 2, 4, seed=16)
    q = generate_query(net, 3, cats, D=math.inf, seed=20)
    ref = brute_force_solve(q, build_oracle(net, FULL).rows(range(net.vertex_count)))
    assert ref.best_aggregated == 30723.9601839797  # compensated: 30723.960183979696
    for faithful in (False, True):
        out = solve_exact(q, build_oracle(net), faithful=faithful)
        assert out.feasible_count == ref.feasible_count
        assert out.optimal.combination == ref.best_combo
        assert out.optimal.per_member == ref.best_members
        assert out.optimal.aggregated == ref.best_aggregated
    # the exact sums tie at 1e16 (id 0 wins); compensated, 1e16 + 2 loses to id 1
    index = bulk_load([(0, 0.0, -1.0), (1, 0.0, 0.0)])
    points = [(0.0, -1e16), (0.0, 0.0), (0.0, 0.0)]
    assert euclidean_gnn(index, points) == linear_gnn(index, points) == 0


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

    def test_feasible_fast_solve_fetches_feasible_firsts_and_interior(self, europe, monkeypatch):
        # a cold oracle fetches at most the rows of the feasible firsts and
        # the interior POIs, in at most three calls (members, the upper
        # bound's chain, the rows the landmark bound keeps); a warm one
        # fetches exactly those rows
        fewer = []
        for k in (2, 3, 4):
            cats = assign_categories(europe, k, 6, seed=70 + k)
            q = generate_query(europe, 4, cats, D=0.0, seed=71 + k)
            gaps = gap_distribution(q, build_oracle(europe)).reshape(6, 6)
            D = float(np.quantile(gaps, 0.1))
            firsts = np.flatnonzero((gaps <= D).any(axis=1))
            feasible_firsts = {cats.categories[0][p] for p in firsts}
            assert 0 < len(feasible_firsts) < 6
            interior = {v for cat in cats.categories[1:-1] for v in cat}
            members = set(q.group.sources) | set(q.group.destinations)
            chain = feasible_firsts | interior
            cold = build_oracle(europe)
            calls = []
            memoize = cold._memoize
            monkeypatch.setattr(cold, "_memoize", lambda s: (calls.append(set(s)), memoize(s)))
            out = solve_exact(q.with_threshold(D), cold)
            assert out.feasible and set(out.optimal.combination[:-1]) <= set(cold._rows)
            assert members <= set(cold._rows) <= members | chain
            assert len(calls) <= 3 and calls[0] == members
            fewer.append(len(set(cold._rows) - members) < len(chain - members))
            # warm: one chain row held beforehand, every row the scan may read
            warm = build_oracle(europe)
            warm.prefetch([min(interior or feasible_firsts)])
            assert repr(solve_exact(q.with_threshold(D), warm)) == repr(out)
            assert set(warm._rows) == members | chain
        assert fewer == [True, True, True]

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
            for rho in itertools.product(*q.categories.categories)
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
            for rho in itertools.product(*q.categories.categories)
        )
        assert dist == full


class TestDebugMatrix:
    def test_rows_mirror_evaluations(self, path_oracle):
        q = query([0, 4], [4, 0], [(1, 2), (3, 4)], 4.0)
        buf = io.StringIO()
        out = solve_exact(q, path_oracle, debug_matrix=buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert rows[0] == ["v1", "v2", "aggregated", "max_gap", "feasible"]
        combos = list(itertools.product(*q.categories.categories))
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


def test_progress_logging(path_oracle, caplog, monkeypatch):
    monkeypatch.setattr(efgtp.exact, "PROGRESS_EVERY", 2)
    q = query([0, 4], [4, 0], [(1, 2), (3, 4)], 4.0)
    with caplog.at_level(logging.INFO, logger="efgtp.exact"):
        solve_exact(q, path_oracle, faithful=True)
    messages = [r.message for r in caplog.records]
    assert "evaluated 2/4 combinations" in messages
    assert "evaluated 4/4 combinations" in messages


def test_pruned_solve_logs_its_rows(europe, caplog):
    cats = assign_categories(europe, 3, 10, seed=403)
    q = generate_query(europe, 4, cats, D=math.inf, seed=422)
    members = set(q.group.sources) | set(q.group.destinations)
    cold = build_oracle(europe)
    with caplog.at_level(logging.INFO, logger="efgtp.exact"):
        solve_exact(q, cold)
        solve_exact(q, build_oracle(europe, FULL))  # a full oracle does not prune
    fetched = len(set(cold._rows) - members)
    assert 0 < fetched < 20
    messages = [r.message for r in caplog.records]
    assert [m for m in messages if not m.startswith("pair-gap table")] == [
        f"landmark bound: fetched {fetched} of 20 chain rows"
    ]


def outcome(fn, query, oracle) -> str:
    """repr of one call's answer (an array as its list of floats), or of
    the ValueError it raises."""
    try:
        out = fn(query, oracle)
    except ValueError as e:
        return f"ValueError({e})"
    return repr(out.tolist() if isinstance(out, np.ndarray) else out)


class TestPairTableMemo:
    """An oracle keeps one query's pair-gap tables; a hit must give the
    answers of a fresh oracle to the bit, whatever came before it."""

    def pairs(self, net, k, b):
        """Two (A, B) query pairs at D = 0: the same categories with other
        members, and the same members with another last category."""
        cats = assign_categories(net, k + 1, 6, seed=900 + 10 * k + b).categories
        a = generate_query(net, b, CategoryAssignment(cats[:k]), D=0.0, seed=k * b)
        other = generate_query(net, b, a.categories, D=0.0, seed=k * b + 1)
        last = EfGtpQuery(a.group, CategoryAssignment((*cats[: k - 1], cats[k])), 0.0)
        return (a, other), (a, last)

    def thresholds(self, net, q):
        """0, the exact minimum pair gap, and infinity."""
        return 0.0, float(gap_distribution(q, build_oracle(net)).min()), math.inf

    def test_warm_memo_answers_equal_fresh_oracle_answers(self, europe):
        shared = (build_oracle(europe), build_oracle(europe, FULL))
        for k in (1, 2, 3):
            for b in (1, 4):
                for a, other in self.pairs(europe, k, b):
                    da, db = self.thresholds(europe, a), self.thresholds(europe, other)
                    for r in range(3):
                        steps = [
                            (solve_exact, a.with_threshold(da[r])),
                            (solve_exact, other.with_threshold(db[(r + 1) % 3])),
                            (solve_exact, a.with_threshold(da[(r + 2) % 3])),
                            (min_additional_distance, a.with_threshold(da[r])),
                            (gap_distribution, other),
                        ]
                        want = [outcome(fn, q, build_oracle(europe)) for fn, q in steps]
                        for oracle in shared:
                            assert [outcome(fn, q, oracle) for fn, q in steps] == want

    def test_faithful_solves_bypass_the_memo(self, europe):
        (a, other), _ = self.pairs(europe, 2, 4)
        oracle = build_oracle(europe)
        modes = ({"faithful": True}, {"debug_matrix": io.StringIO()})
        for kwargs in modes:
            solve_exact(a, oracle, **kwargs)
            assert oracle.pair_tables is None
        solve_exact(other, oracle)
        entry = oracle.pair_tables
        assert entry[0] == (other.group, other.categories)
        for kwargs in modes:
            for q in (a, other):
                solve_exact(q, oracle, **kwargs)
                assert oracle.pair_tables is entry

    def test_writing_into_gap_distribution_changes_no_answer(self, europe):
        (a, _), _ = self.pairs(europe, 3, 4)
        steps = [(solve_exact, a.with_threshold(D)) for D in self.thresholds(europe, a)]
        steps += [(min_additional_distance, a), (gap_distribution, a)]
        want = [outcome(fn, q, build_oracle(europe)) for fn, q in steps]
        oracle = build_oracle(europe)
        gaps = gap_distribution(a, oracle)
        gaps[:] = -1.0
        assert not oracle.pair_tables[1].gaps.flags.writeable
        assert [outcome(fn, q, oracle) for fn, q in steps] == want

    def test_threads_alternating_two_queries_get_the_serial_answers(self, europe):
        (a, other), _ = self.pairs(europe, 3, 4)
        fns = (solve_exact, min_additional_distance)
        steps = {
            q: [(fn, q.with_threshold(D)) for D in self.thresholds(europe, q) for fn in fns]
            + [(gap_distribution, q)]
            for q in (a, other)
        }
        serial = {q: [outcome(fn, x, build_oracle(europe)) for fn, x in steps[q]] for q in steps}
        oracle = build_oracle(europe)

        def work(order):
            return [[outcome(fn, x, oracle) for fn, x in steps[q]] for q in order * 10]

        orders = [(a, other), (other, a)] * 2  # more threads than the CI host has cores
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            with ThreadPoolExecutor(max_workers=len(orders)) as pool:
                futures = [pool.submit(work, order) for order in orders]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for order, got in zip(orders, results):
            assert got == [serial[q] for q in order * 10]

    def test_logs_built_then_reused(self, europe, caplog):
        (a, _), _ = self.pairs(europe, 2, 4)
        oracle = build_oracle(europe)
        with caplog.at_level(logging.INFO, logger="efgtp.exact"):
            assert not solve_exact(a, oracle).feasible
            min_additional_distance(a, oracle)
        built, reused = [r.message for r in caplog.records]
        assert re.fullmatch(r"pair-gap table built \(6 x 6, \d+\.\d\d ms\)", built)
        assert reused == "pair-gap table reused"


class TestQueryJson:
    def test_round_trip(self, path_oracle):
        net = path_oracle.net
        q = query([0, 4], [4, 0], [(1, 2), (3,)], 6.5)
        text = (
            '{\n  "sources": ["0", "4"],\n  "destinations": ["4", "0"],\n'
            '  "categories": [["1", "2"], ["3"]],\n  "D": 6.5\n}\n'
        )
        assert load_query(text, net) == q

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
        with pytest.raises(ValueError, match=r"^query 'sources': unknown vertex id '99'$"):
            load_query(doc, path_oracle.net)

    @pytest.mark.parametrize(
        "categories, expected",
        [
            ([["30", 20], [50], ["40"]], ((2, 1), (4,), (3,))),
            ([[10, "20", 30, "40", 50]], ((0, 1, 2, 3, 4),)),
            ([["50"], ["10"]], ((4,), (0,))),
        ],
        ids=["mixed", "one-category", "endpoints"],
    )
    def test_categories_read_in_written_order(self, categories, expected):
        net = parse_edge_list("10 20 1\n20 30 1\n30 40 1\n40 50 1\n")
        doc = {"sources": ["10"], "destinations": ["50"], "categories": categories, "D": 1}
        assert load_query(json.dumps(doc), net).categories == CategoryAssignment(expected)

    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            query([0], [1], [(2,)], -1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            query([0], [1], [(2,)], math.nan)
