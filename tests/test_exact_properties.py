"""Differential properties of the exact solver on small random networks.

The fast pair scan, the faithful scan and the literal brute force in
support.py must agree bit for bit on every SolveOutcome field, and the MAD
tuple must match the solve (or MAD must raise on a feasible query).

Brute force takes the envy gap as the largest pairwise difference of whole
trips over Floyd-Warshall distances. That equals the library's end-leg gap
only on exact arithmetic, so integer, tied and dyadic weights (multiples of
1/8, whose sums stay exact) get the full three-way check. General float
weights round: there fast and faithful must still agree bit for bit, and at
D = inf, where the envy bound drops out, brute force over the oracle's own
matrix must find the same optimum to the bit.
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from efgtp import (  # noqa: E402
    FULL,
    CategoryAssignment,
    EfGtpQuery,
    EvaluatedRoute,
    GroupSpec,
    RoadNetwork,
    build_oracle,
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


def brute_route(brute) -> EvaluatedRoute:
    return EvaluatedRoute(
        combination=brute.best_combo,
        per_member=brute.best_members,
        aggregated=brute.best_aggregated,
        max_gap=brute.best_gap,
        feasible=True,
    )


@given(instances())
def test_fast_faithful_and_brute_force_agree(instance):
    kind, net, q, rule = instance
    gaps = gap_distribution(q, build_oracle(net))
    q = q.with_threshold({"zero": 0.0, "min": float(gaps.min()), "inf": math.inf}[rule])

    fast = solve_exact(q, build_oracle(net))
    assert repr(solve_exact(q, build_oracle(net), faithful=True)) == repr(fast)
    assert repr(solve_exact(q, build_oracle(net, FULL))) == repr(fast)
    assert fast.feasible or rule == "zero"

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
