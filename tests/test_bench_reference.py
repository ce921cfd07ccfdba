"""The benchmark's correctness gate, run on small instances.

bench/reference.py checks answers against its own Dijkstra and a
vectorised enumeration of the category product; bench/selftest.py checks
that checker. Both are imported as they are, so a change the benchmark
would reject as incorrect fails here first.
"""

import math
import sys
import types
from pathlib import Path

import pytest

from efgtp import exact, experiments, heuristic, network, oracle, rtree, synthetic

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import reference as R  # noqa: E402
from selftest import run_self_test  # noqa: E402
from spans import Tracer, per_layer_metrics  # noqa: E402

MODS = types.SimpleNamespace(
    exact=exact, experiments=experiments, heuristic=heuristic, network=network,
    oracle=oracle, rtree=rtree, synthetic=synthetic,
)
QUANTILES = (0.0, 0.005, 0.5, 1.0)


@pytest.fixture(scope="module")
def europe():
    return synthetic.europe_like()


def test_checker_self_test():
    assert run_self_test(MODS) == []


@pytest.mark.parametrize("k, per_cat, b, seed", [(1, 12, 3, 1), (2, 8, 4, 2), (3, 5, 2, 3), (4, 4, 4, 4)])
def test_answers_pass_the_reference(europe, k, per_cat, b, seed):
    cats = network.assign_categories(europe, k, per_cat, seed=seed)
    query = experiments.generate_query(europe, b, cats, D=0.0, seed=seed + 100)
    legs = R.build_legs(R.RefGraph(europe), query)
    thresholds = experiments.threshold_quantiles(query, oracle.build_oracle(europe), QUANTILES)
    if k > 1:  # the checker takes every (first, last) cross pair, also when k = 1
        assert R.check_quantiles(legs, QUANTILES, thresholds) == []
    for D in (0.5 * thresholds[0], *thresholds):
        q = query.with_threshold(D)
        out = exact.solve_exact(q, oracle.build_oracle(europe))
        assert R.check_exact(legs, D, out) == []
        if not out.feasible:
            mad = exact.min_additional_distance(q, oracle.build_oracle(europe))
            assert R.check_mad(legs, D, out, mad) == []
        # the checker scores a k = 1 pick by the source legs alone, not the joint GNN
        for index in heuristic.INDEX_MODES if k > 1 else ():
            res = heuristic.solve_heuristic(q, oracle.build_oracle(europe), index=index)
            assert R.check_heuristic(legs, D, res, euclidean=index is not None) == []


def test_traced_layers_are_wrapped(europe):
    """The traced benchmark wraps library names; a renamed one reads as NaN."""
    cats = network.assign_categories(europe, 3, 6, seed=5)
    query = experiments.generate_query(europe, 4, cats, D=1e12, seed=6)
    tracer = Tracer()
    tracer.install(MODS)
    try:
        exact.solve_exact(query, oracle.build_oracle(europe))
        for index in heuristic.INDEX_MODES:
            heuristic.solve_heuristic(query, oracle.build_oracle(europe), index=index)
    finally:
        tracer.uninstall()
    metrics = per_layer_metrics(tracer, rounds=1)
    for name in ("heuristic.gnn_ms", "heuristic.nn_ms", "rtree.bulk_load_ms", "rtree.query_ms"):
        assert math.isfinite(metrics[name][0]), name
