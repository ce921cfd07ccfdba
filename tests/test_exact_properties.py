"""Differential properties of the exact solver on small random networks.

The fast pair scan, the faithful scan and the literal brute force in
support.py must agree bit for bit on every SolveOutcome field, and the MAD
tuple must match the solve (or MAD must raise on a feasible query). A
debug-matrix solve must return the same outcome, and each of its CSV rows
must carry evaluate_route's numbers for that combination to the bit.

Brute force takes the envy gap as the largest pairwise difference of whole
trips over Floyd-Warshall distances. That equals the library's end-leg gap
only on exact arithmetic, so integer, tied and dyadic weights (multiples of
1/8, whose sums stay exact) get the full three-way check. General float
weights round: there fast and faithful must still agree bit for bit, and at
D = inf, where the envy bound drops out, brute force over the oracle's own
matrix must find the same optimum to the bit.
"""

import csv
import io
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import efgtp.exact  # noqa: E402

from efgtp import (  # noqa: E402
    FULL,
    CategoryAssignment,
    EfGtpQuery,
    EvaluatedRoute,
    GroupSpec,
    RoadNetwork,
    assign_categories,
    build_oracle,
    europe_like,
    evaluate_route,
    gap_distribution,
    generate_query,
    min_additional_distance,
    minnesota_like,
    solve_exact,
)

from support import INTEGER_WEIGHTS, brute_force_solve, floyd_warshall  # noqa: E402

WEIGHTS = {
    "integer": st.sampled_from(INTEGER_WEIGHTS),
    "tied": st.sampled_from((1.0, 2.0)),  # many equal distances, gaps and totals
    "dyadic": st.integers(1, 127).map(lambda i: i / 8),
    "float": st.floats(0.1, 10.0),
    "float-tied": st.sampled_from((0.1, 0.2, 0.3)),  # sums that tie up to rounding
}
EXACT = ("integer", "tied", "dyadic")
THRESHOLDS = ("zero", "min", "inf", "mid")


@st.composite
def instances(draw):
    """(weight kind, network, query at D = 0, threshold rule)."""
    kind = draw(st.sampled_from(sorted(WEIGHTS)))
    weight = WEIGHTS[kind]
    n = draw(st.integers(2, 12))
    edges = {(draw(st.integers(0, v - 1)), v): draw(weight) for v in range(1, n)}
    for _ in range(draw(st.integers(0, n))):
        u, v = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
        edges.setdefault((u, v), draw(weight))
    net = RoadNetwork(
        vertex_count=n,
        edges=tuple((u, v, w) for (u, v), w in sorted(edges.items())),
        external_ids=tuple(str(i) for i in range(n)),
    )
    k = draw(st.integers(1, min(n, 4)))
    sizes = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    assume(sum(sizes) <= n)
    perm = draw(st.permutations(range(n)))
    cats, at = [], 0
    for size in sizes:
        cats.append(tuple(perm[at : at + size]))
        at += size
    b = draw(st.integers(1, 3))
    vertex = st.integers(0, n - 1)
    sources = draw(st.lists(vertex, min_size=b, max_size=b))
    destinations = draw(st.lists(vertex, min_size=b, max_size=b))
    if draw(st.booleans()):  # POIs on member endpoints
        sources[0], destinations[-1] = cats[0][0], cats[-1][-1]
    query = EfGtpQuery(
        group=GroupSpec(sources=tuple(sources), destinations=tuple(destinations)),
        categories=CategoryAssignment(tuple(cats)),
        envy_threshold=0.0,
    )
    return kind, net, query, draw(st.sampled_from(THRESHOLDS))


# fixed values of each weight kind for the explicit examples below
EXAMPLE_WEIGHTS = {
    "integer": INTEGER_WEIGHTS,
    "tied": (1.0, 2.0),
    "dyadic": (0.125, 1.375, 15.875, 3.5),
    "float": (0.1, 3.7, 9.93, 1.01, 6.283),
    "float-tied": (0.1, 0.2, 0.3),
}


def every_kind_and_k(test):
    """Add one explicit example per weight kind and k = 1..4, so each pair
    is checked whatever the profile draws: a path with a chord from every
    even vertex, b = 2, two POIs per category and the threshold rules in
    turn."""
    for kind, values in EXAMPLE_WEIGHTS.items():
        for k in range(1, 5):
            n = 2 * k + 3
            pairs = sorted({(v, v + 1) for v in range(n - 1)} | {(v, v + 2) for v in range(0, n - 2, 2)})
            net = RoadNetwork(
                vertex_count=n,
                edges=tuple((u, v, values[i % len(values)]) for i, (u, v) in enumerate(pairs)),
                external_ids=tuple(str(i) for i in range(n)),
            )
            query = EfGtpQuery(
                group=GroupSpec(sources=(0, n - 1), destinations=(n - 1, 0)),
                categories=CategoryAssignment(tuple((2 * i + 1, 2 * i + 2) for i in range(k))),
                envy_threshold=0.0,
            )
            test = example((kind, net, query, THRESHOLDS[k % 4]))(test)
    return test


def brute_route(brute) -> EvaluatedRoute:
    return EvaluatedRoute(
        combination=brute.best_combo,
        per_member=brute.best_members,
        aggregated=brute.best_aggregated,
        max_gap=brute.best_gap,
        feasible=True,
    )


@given(instances())
@every_kind_and_k
def test_fast_faithful_and_brute_force_agree(instance):
    kind, net, q, rule = instance
    gaps = gap_distribution(q, build_oracle(net))
    mid = float(np.quantile(gaps, 0.5))
    thresholds = {"zero": 0.0, "min": float(gaps.min()), "inf": math.inf, "mid": mid}
    q = q.with_threshold(thresholds[rule])

    fast = solve_exact(q, build_oracle(net))
    assert repr(solve_exact(q, build_oracle(net), faithful=True)) == repr(fast)
    full = build_oracle(net, FULL)
    assert repr(solve_exact(q, full)) == repr(fast)
    assert fast.feasible or rule == "zero"

    # an oracle warmed by a solve at another threshold gives the same bits
    warm = build_oracle(net)
    for qd in (q.with_threshold(mid), q):
        assert repr(solve_exact(qd, warm)) == repr(solve_exact(qd, full))

    # the debug matrix's rows are evaluate_route's numbers, to the bit
    stream = io.StringIO()
    assert repr(solve_exact(q, build_oracle(net), debug_matrix=stream)) == repr(fast)
    rows = list(csv.DictReader(io.StringIO(stream.getvalue())))
    assert len(rows) == q.categories.combination_count()
    oracle = build_oracle(net)
    for row in rows:
        route = evaluate_route(q, [int(row[f"v{i + 1}"]) for i in range(q.k)], oracle)
        assert row["aggregated"] == repr(route.aggregated)
        assert row["max_gap"] == repr(route.max_gap)
        assert row["feasible"] == str(int(route.feasible))

    try:
        mad = min_additional_distance(q, build_oracle(net))
    except ValueError as err:
        assert fast.feasible, err
    else:
        assert not fast.feasible
        assert repr(mad) == repr((fast.min_gap, fast.epsilon, fast.min_gap_witness))

    if kind in EXACT:
        brute = brute_force_solve(q, floyd_warshall(net))
        assert fast.feasible_count == brute.feasible_count
        assert fast.optimal == (brute_route(brute) if brute.feasible else None)
        assert fast.min_gap == brute.min_gap
        assert fast.min_gap_witness == brute.min_gap_combo
        assert fast.epsilon == brute.epsilon
    elif rule == "inf":
        brute = brute_force_solve(q, build_oracle(net, FULL).rows(range(net.vertex_count)))
        assert fast.feasible_count == brute.feasible_count
        route = fast.optimal
        assert route.combination == brute.best_combo
        assert route.per_member == brute.best_members
        assert route.aggregated == brute.best_aggregated


def test_near_tie_inside_the_slack(monkeypatch):
    # first POIs 1 and 0 tie at 0.9999999999999999 with last POI 5. The
    # landmark bound of (1, 5) rounds above that aggregate, so only the
    # slack delta keeps POI 1, the first of the tie in enumeration order.
    pairs = ((0, 1), (0, 2), (0, 4), (1, 5), (2, 4), (2, 6), (3, 7), (4, 7), (4, 8), (5, 8))
    weights = dict.fromkeys(pairs, 0.3) | dict.fromkeys([(0, 6), (2, 3), (5, 7)], 0.1)
    net = RoadNetwork(
        vertex_count=9,
        edges=tuple((u, v, w) for (u, v), w in sorted(weights.items())),
        external_ids=tuple(str(i) for i in range(9)),
    )
    q = EfGtpQuery(
        group=GroupSpec(sources=(2,), destinations=(7,)),
        categories=CategoryAssignment(((1, 8, 0), (5,))),
        envy_threshold=math.inf,
    )
    oracle = build_oracle(net)
    tie = evaluate_route(q, (0, 5), oracle).aggregated
    assert evaluate_route(q, (1, 5), oracle).aggregated == tie == 0.9999999999999999
    faithful = solve_exact(q, build_oracle(net), faithful=True)
    assert faithful.optimal.combination == (1, 5)
    assert repr(solve_exact(q, build_oracle(net))) == repr(faithful)
    monkeypatch.setattr(efgtp.exact, "_slack", lambda *args: 0.0)
    assert solve_exact(q, build_oracle(net)).optimal.combination == (0, 5)


@pytest.fixture(scope="module", params=["europe", "minnesota"])
def preset(request):
    net = {"europe": europe_like, "minnesota": minnesota_like}[request.param]()
    return net, build_oracle(net, FULL)


@pytest.mark.parametrize("k, per_category", [(2, 40), (3, 12), (4, 6), (5, 4)])
def test_presets_prune_cold_rows_to_the_same_bits(preset, k, per_category):
    # fresh (pruned), FULL and faithful solves agree; the fresh oracle
    # fetches no row outside the unpruned first and interior rows, and
    # fewer of them in all
    net, full = preset
    fetched = unpruned = 0
    for seed in range(3):
        cats = assign_categories(net, k, per_category, seed=500 + 10 * k + seed)
        q = generate_query(net, 4, cats, D=0.0, seed=600 + 10 * k + seed)
        gaps = gap_distribution(q, full).reshape(per_category, per_category)
        for D in (float(gaps.min()), float(np.quantile(gaps, 0.05)), float(np.quantile(gaps, 0.5))):
            qd = q.with_threshold(D)
            fresh = build_oracle(net)
            out = solve_exact(qd, fresh)
            assert repr(solve_exact(qd, full)) == repr(out)
            assert repr(solve_exact(qd, full, faithful=True)) == repr(out)
            members = set(q.group.sources) | set(q.group.destinations)
            firsts = {cats.categories[0][p] for p in np.flatnonzero((gaps <= D).any(axis=1))}
            chain = (firsts | {v for cat in cats.categories[1:-1] for v in cat}) - members
            rows = set(fresh._rows) - members
            assert rows <= chain
            fetched, unpruned = fetched + len(rows), unpruned + len(chain)
    assert fetched < unpruned
