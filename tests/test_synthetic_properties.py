"""The k-d tree predecessor kernel against the literal prefix scan.

Every vertex's nearest predecessor, with ties to the smallest id, must
equal the scan in support.py to the bit, both in the rows the tree's hits
certify and after the fallback fills in the rest. The explicit examples
cover queries that return every point, exact lattice ties, more coincident
points than the tree returns, far-apart clusters, and coordinates whose
squares underflow or overflow.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from scipy.spatial import cKDTree  # noqa: E402

from efgtp.synthetic import (  # noqa: E402
    _PREDECESSOR_HITS,
    _certified_predecessors,
    _nearest_predecessors,
)

from support import prefix_scan_predecessors  # noqa: E402

K = _PREDECESSOR_HITS - 1  # neighbours returned besides the point itself


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
    else:  # kind is one of TIES: points 0 and 1 tie for point 2 under np.hypot
        zero, one = TIES[kind]
        near = rng.random((n - 4, 2)) * 1e-3  # successors of 2, nearer than both
        far = (2.0**512, 2.0**512)  # a successor whose squares overflow
        return np.vstack([zero, one, (0.0, 0.0), near, far]) * scale
    return base * scale


# Pairs at one np.hypot length from the origin, 3.0 and 2**512, so that the
# scan takes point 0 on the tie. The tree measures both "margin" points at
# 3.0000000000000004 and keeps only point 1; it measures "overflow" point 0
# as inf and point 1 as finite. Only the certificate margin, or the rule that
# the farthest hit be finite, keeps point 1 from being taken.
TIES = {
    "margin": (
        (2.7346232844723013, 1.2336269663159622),
        (0.4098439705008441, 2.971872796713228),
    ),
    "overflow": (
        (7.238209023057037e153, 1.1286170458785712e154),
        (1.3380047623817796e154, 8.623450994812485e152),
    ),
}


EXAMPLES = {
    "two points": ("uniform", 2, 0, 1.0),
    "every point a hit": ("uniform", K + 1, 1, 1e4),
    "fewer than K": ("lattice", K // 2, 2, 1.0),
    "lattice ties": ("lattice", 60, 3, 1.0),
    "K + 2 coincident": ("coincident", 3 * (K + 2), 4, 1.0),
    "far clusters": ("clusters", 60, 5, 1e4),
    "underflow": ("uniform", 40, 6, 1e-300),
    "subnormal squares": ("lattice", 40, 1, 1e-162),
    "overflow": ("uniform", 40, 7, 1e155),
    "tie inside the margin": ("margin", K + 2, 8, 1.0),
    "tie with a missing hit": ("overflow", K + 2, 9, 1.0),
    "tie, every point a hit": ("overflow", K + 1, 10, 1.0),
}

point_sets = st.tuples(
    st.sampled_from(("uniform", "lattice", "coincident", "clusters")),
    st.integers(2, 60),
    st.integers(0, 2**32 - 1),
    st.sampled_from((1.0, 1e4, 1e-300, 1e-162, 1e-160, 1e150, 1e155)),
)


def _with_examples(test):
    for args in EXAMPLES.values():
        test = example(args)(test)
    return test


@given(point_sets)
@_with_examples
def test_kernel_matches_prefix_scan(args):
    pts = make_points(*args)
    expected = prefix_scan_predecessors(pts)
    certified = _certified_predecessors(pts, cKDTree(pts))
    sure = certified >= 0
    assert np.array_equal(certified[sure], expected[sure]), args
    assert np.array_equal(_nearest_predecessors(pts, cKDTree(pts)), expected), args


def test_examples_reach_both_paths():
    certified = {}
    for name, args in EXAMPLES.items():
        pts = make_points(*args)
        certified[name] = _certified_predecessors(pts, cKDTree(pts))
    fallback = {name: int((c[1:] < 0).sum()) for name, c in certified.items()}
    assert fallback["two points"] == fallback["every point a hit"] == 0
    assert fallback["fewer than K"] == 0
    for name in ("K + 2 coincident", "underflow", "subnormal squares", "overflow"):
        assert fallback[name] > 0, name
    for name, args in EXAMPLES.items():
        if args[0] in TIES:
            assert certified[name][2] == -1, name
    rows = sum(args[1] - 1 for args in EXAMPLES.values())
    assert 0 < sum(fallback.values()) < rows  # both paths are taken
