"""The k-d tree predecessor kernel against the literal prefix scan.

Every vertex's nearest predecessor, with ties to the smallest id, must
equal the scan in support.py to the bit, both in the rows the first tree
query certifies and after the widened queries and short prefix scans fill
in the rest. The explicit examples cover queries that return every point,
exact lattice ties, more coincident points than the tree returns,
far-apart clusters, and a tie that only the certificate margin resolves.
Points are drawn at the scales 1.0 and 1e4, where every squared
difference is finite and normal if nonzero, as the kernel requires.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from scipy.spatial import cKDTree  # noqa: E402

from efgtp import synthetic  # noqa: E402
from efgtp.synthetic import (  # noqa: E402
    _HITS,
    _WIDEN,
    _certified_predecessors,
    _nearest_predecessors,
)

from support import prefix_scan_predecessors  # noqa: E402

K = _HITS - 1  # neighbours returned besides the point itself


def make_points(kind: str, n: int, seed: int, scale: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        base = rng.random((n, 2))
    elif kind == "lattice":  # integer points: many exactly equal distances
        base = rng.integers(0, 5, (n, 2)).astype(float)
    elif kind == "coincident":  # three sites, each repeated many times
        base = rng.random((3, 2))[rng.integers(0, 3, n)]
    elif kind == "clusters":  # tight clusters far apart
        base = rng.random((4, 2))[rng.integers(0, 4, n)] + rng.random((n, 2)) * 1e-9
    else:  # "margin": points 0 and 1 tie for point 2 under np.hypot
        near = rng.random((n - 3, 2)) * 1e-3  # successors of 2, nearer than both
        return np.vstack([*MARGIN_TIE, (0.0, 0.0), near]) * scale
    return base * scale


# A pair at np.hypot length 3.0 from the origin, so that the scan takes point
# 0 on the tie. The tree measures both at 3.0000000000000004 and, with K + 2
# points, keeps only point 1: only the certificate margin keeps it from being
# taken.
MARGIN_TIE = ((2.7346232844723013, 1.2336269663159622), (0.4098439705008441, 2.971872796713228))


EXAMPLES = {
    "two points": ("uniform", 2, 0, 1.0),
    "every point a hit": ("uniform", K + 1, 1, 1e4),
    "fewer than K": ("lattice", K // 2, 2, 1.0),
    "lattice ties": ("lattice", 60, 3, 1.0),
    "K + 2 coincident": ("coincident", 3 * (K + 2), 4, 1.0),
    "far clusters": ("clusters", 60, 5, 1e4),
    "tie inside the margin": ("margin", K + 2, 8, 1.0),
}

point_sets = st.tuples(
    st.sampled_from(("uniform", "lattice", "coincident", "clusters")),
    st.integers(2, 60),
    st.integers(0, 2**32 - 1),
    st.sampled_from((1.0, 1e4)),
)


def _with_examples(test):
    for args in EXAMPLES.values():
        test = example(args)(test)
    return test


def first_round(pts: np.ndarray):
    """The tree, its first answer for every point, and what that answer certifies."""
    tree = cKDTree(pts)
    dist, hits = tree.query(pts, k=min(len(pts), _HITS))
    return tree, dist, hits, _certified_predecessors(pts, np.arange(len(pts)), dist, hits)


@given(point_sets)
@_with_examples
def test_kernel_matches_prefix_scan(args):
    pts = make_points(*args)
    expected = prefix_scan_predecessors(pts)
    tree, dist, hits, certified = first_round(pts)
    sure = certified >= 0
    assert np.array_equal(certified[sure], expected[sure]), args
    assert np.array_equal(_nearest_predecessors(pts, tree, dist, hits), expected), args


def test_examples_reach_both_paths():
    certified = {}
    for name, args in EXAMPLES.items():
        certified[name] = first_round(make_points(*args))[3]
    fallback = {name: int((c[1:] < 0).sum()) for name, c in certified.items()}
    assert fallback["two points"] == fallback["every point a hit"] == 0
    assert fallback["fewer than K"] == 0
    assert fallback["K + 2 coincident"] > 0
    assert certified["tie inside the margin"][2] == -1
    rows = sum(args[1] - 1 for args in EXAMPLES.values())
    assert 0 < sum(fallback.values()) < rows  # both paths are taken


WIDENED = {  # rows the first query leaves open, from the three ways it falls short
    "coincident": ("coincident", 300, 11, 1.0),
    "far clusters": ("clusters", 400, 12, 1e4),
    "early vertices": ("uniform", 3000, 13, 1e4),
}


@pytest.mark.parametrize("name", sorted(WIDENED))
@pytest.mark.parametrize("batch_hits", [64, synthetic._BATCH_HITS])
def test_widened_queries_match_prefix_scan(name, batch_hits, monkeypatch):
    monkeypatch.setattr(synthetic, "_BATCH_HITS", batch_hits)  # 64: many small batches
    pts = make_points(*WIDENED[name])
    tree, dist, hits, certified = first_round(pts)
    open_rows = np.flatnonzero(certified[1:] < 0) + 1
    # some open rows have prefixes longer than the widened hit count, so
    # a widened tree query, not a prefix scan, answers them
    assert (open_rows >= _HITS * _WIDEN).any(), name
    expected = prefix_scan_predecessors(pts)
    assert np.array_equal(_nearest_predecessors(pts, tree, dist, hits), expected), name
