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

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from efgtp import (  # noqa: E402
    FULL,
    CategoryAssignment,
    EfGtpQuery,
    EvaluatedRoute,
    GroupSpec,
    RoadNetwork,
    build_oracle,
    evaluate_route,
    gap_distribution,
    min_additional_distance,
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
THRESHOLDS = ("zero", "min", "inf")


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
            test = example((kind, net, query, THRESHOLDS[k % 3]))(test)
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
    q = q.with_threshold({"zero": 0.0, "min": float(gaps.min()), "inf": math.inf}[rule])

    fast = solve_exact(q, build_oracle(net))
    assert repr(solve_exact(q, build_oracle(net), faithful=True)) == repr(fast)
    assert repr(solve_exact(q, build_oracle(net, FULL))) == repr(fast)
    assert fast.feasible or rule == "zero"

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
        brute = brute_force_solve(q, build_oracle(net, FULL).matrix)
        assert fast.feasible_count == brute.feasible_count
        route = fast.optimal
        assert route.combination == brute.best_combo
        assert route.per_member == brute.best_members
        assert route.aggregated == brute.best_aggregated
