"""Self-test of the checker: planted wrong answers must be rejected.

It runs on a fixed instance of europe_like() (k = 3, 6 POIs per category,
b = 4, category seed 5, query seed 6) whose correct optimum at the 0% gap
quantile reports a max_gap one ulp above D, so it also proves that a
correct answer at a boundary threshold is accepted.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import reference as R


def run_self_test(mods) -> list[str]:
    """Problems with the checker; empty when every case behaves."""
    ex, heu, exp = mods.exact, mods.heuristic, mods.experiments
    net = mods.synthetic.europe_like()
    oracle = mods.oracle.build_oracle(net)
    assignment = mods.network.assign_categories(net, 3, 6, seed=5)
    query = exp.generate_query(net, 4, assignment, D=0.0, seed=6)
    legs = R.build_legs(R.RefGraph(net), query)
    q0, q50 = exp.threshold_quantiles(query, oracle, [0.0, 0.5])
    boundary, mid = query.with_threshold(q0), query.with_threshold(q50)
    problems: list[str] = []

    def accept(label, found):
        if found:
            problems.append(f"correct answer rejected ({label}): {found[0]}")

    def reject(label, found):
        if not found:
            problems.append(f"planted wrong answer accepted: {label}")

    out_b = ex.solve_exact(boundary, oracle)
    accept("optimum at the boundary threshold", R.check_exact(legs, q0, out_b))
    out = ex.solve_exact(mid, oracle)
    accept("optimum at the median threshold", R.check_exact(legs, q50, out))
    for euclid in (False, True):
        h = heu.solve_heuristic(boundary, oracle, index="euclidean" if euclid else None)
        accept(f"heuristic euclid={euclid}", R.check_heuristic(legs, q0, h, euclid))

    combos = list(itertools.product(*query.categories.categories))
    widest = max(combos, key=lambda c: R.route_values(legs, c)[2])
    r = out.optimal
    reject(
        "aggregate off by a relative 1e-6",
        R.check_exact(legs, q50, replace(out, optimal=replace(r, aggregated=r.aggregated * (1 + 1e-6)))),
    )
    feasible = [c for c in combos if R.route_values(legs, c)[2] <= q50 - legs.delta]
    worst = max(feasible, key=lambda c: R.route_values(legs, c)[1])
    reject(
        "feasible optimum that is not the cheapest",
        R.check_exact(legs, q50, replace(out, optimal=ex.evaluate_route(mid, worst, oracle))),
    )
    # The unbounded optimum, offered at a threshold halfway between the
    # minimum gap and its own gap: cheaper than every feasible combination,
    # so only the gap check can reject it.
    cheapest = min(combos, key=lambda c: R.route_values(legs, c)[1])
    d_over = 0.5 * (R.route_values(legs, cheapest)[2] + R.space_stats(legs, q50).min_gap)
    over = query.with_threshold(d_over)
    out_o = ex.solve_exact(over, oracle)
    accept("optimum below the unbounded optimum's gap", R.check_exact(legs, d_over, out_o))
    reject(
        "optimum whose gap exceeds D",
        R.check_exact(legs, d_over, replace(out_o, optimal=ex.evaluate_route(over, cheapest, oracle))),
    )
    reject("wrong min-gap witness", R.check_exact(legs, q50, replace(out, min_gap_witness=widest)))
    for step in (1, -1):
        reject(
            f"feasible_count off by {step}",
            R.check_exact(legs, q50, replace(out, feasible_count=out.feasible_count + step)),
        )

    h = heu.solve_heuristic(mid, oracle)
    first = R.pick_values(legs, h.combination, euclidean=False)[0][1]
    worse = next(
        v for v in query.categories.categories[0]
        if legs.S[legs.pos[0][v]].sum() > first + legs.delta
    )
    wrong = replace(h, route=ex.evaluate_route(mid, (worse,) + h.combination[1:], oracle))
    reject("non-GNN first pick", R.check_heuristic(legs, q50, wrong, euclidean=False))

    tight = query.with_threshold(0.75 * q0)
    out_i = ex.solve_exact(tight, oracle)
    mad = ex.min_additional_distance(tight, oracle)
    accept("infeasible outcome", R.check_exact(legs, tight.envy_threshold, out_i))
    accept("min_additional_distance", R.check_mad(legs, tight.envy_threshold, out_i, mad))
    reject(
        "epsilon off by a relative 1e-9",
        R.check_exact(legs, tight.envy_threshold, replace(out_i, epsilon=out_i.epsilon * (1 + 1e-9))),
    )
    reject(
        "min_additional_distance witness of a wider gap",
        R.check_mad(legs, tight.envy_threshold, out_i, (mad[0], mad[1], widest)),
    )
    return problems
