"""Euclidean NN/GNN scans: input checks plus equivalence to literal loops."""

import math

import numpy as np
import pytest

from efgtp import bulk_load, euclidean_gnn, euclidean_nn

from support import linear_gnn, linear_nn


def random_entries(rng, n, span=100.0):
    pts = rng.random((n, 2)) * span
    ids = [int(v) for v in rng.permutation(n)]
    return [(vid, float(x), float(y)) for vid, (x, y) in zip(ids, pts)]


def grid_entries(rng, n, side=6):
    pts = rng.integers(0, side, (n, 2))
    ids = [int(v) for v in rng.permutation(n)]
    return [(vid, float(x), float(y)) for vid, (x, y) in zip(ids, pts)]


# (entries, query points) makers: uniform points, then integer-grid points
# and queries, where many candidates share a distance and ties decide
INPUTS = (
    (random_entries, lambda rng, m: rng.random((m, 2)) * 140 - 20),
    (grid_entries, lambda rng, m: rng.integers(-2, 8, (m, 2))),
)


class TestBulkLoad:
    def test_single_entry(self):
        index = bulk_load([(7, 1.0, 2.0)])
        assert len(index) == 1
        assert euclidean_nn(index, 0.0, 0.0) == 7

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            bulk_load([(1, 0.0, 0.0), (1, 1.0, 1.0)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="zero entries"):
            bulk_load([])

    def test_duplicate_coordinates_allowed(self):
        entries = [(i, 1.0, 1.0) for i in reversed(range(40))]
        index = bulk_load(entries)
        assert index == sorted(entries)
        assert euclidean_nn(index, 5.0, 5.0) == 0


class TestNearestNeighbor:
    def test_matches_linear_scan(self):
        rng = np.random.default_rng(405)
        for make_entries, make_points in INPUTS:
            checks = 0
            while checks < 1200:
                entries = make_entries(rng, int(rng.integers(1, 300)))
                index = bulk_load(entries)
                for _ in range(20):
                    qx, qy = (float(v) for v in make_points(rng, 1)[0])
                    assert euclidean_nn(index, qx, qy) == linear_nn(entries, qx, qy)
                    checks += 1

    def test_tie_breaks_to_smallest_id(self):
        # four points on a unit circle around the query, ids out of order,
        # among distant filler points
        entries = [(9, 1.0, 0.0), (4, -1.0, 0.0), (7, 0.0, 1.0), (5, 0.0, -1.0)]
        entries += [(i, 50.0 + i, 50.0) for i in range(10, 40)]
        assert euclidean_nn(bulk_load(entries), 0.0, 0.0) == 4
        # 2² + 107² = 43² + 98²: math.hypot gives both the same distance,
        # np.hypot differs by an ulp on some platforms
        assert math.hypot(2.0, 107.0) == math.hypot(43.0, 98.0)
        assert euclidean_nn(bulk_load([(1, 2.0, 107.0), (0, 43.0, 98.0)]), 0.0, 0.0) == 0

    def test_exact_hit(self):
        rng = np.random.default_rng(406)
        entries = random_entries(rng, 80)
        index = bulk_load(entries)
        for vid, x, y in entries[::7]:
            assert euclidean_nn(index, x, y) == vid


class TestGroupNearestNeighbor:
    def test_matches_linear_scan(self):
        rng = np.random.default_rng(407)
        for make_entries, make_points in INPUTS:
            checks = 0
            while checks < 1200:
                entries = make_entries(rng, int(rng.integers(1, 250)))
                index = bulk_load(entries)
                for _ in range(15):
                    m = int(rng.integers(1, 6))
                    points = [(float(x), float(y)) for x, y in make_points(rng, m)]
                    assert euclidean_gnn(index, points) == linear_gnn(entries, points)
                    checks += 1

    def test_single_point_equals_nn(self):
        rng = np.random.default_rng(408)
        index = bulk_load(random_entries(rng, 120))
        for _ in range(100):
            qx, qy = (float(v) for v in rng.random(2) * 100)
            assert euclidean_gnn(index, [(qx, qy)]) == euclidean_nn(index, qx, qy)

    def test_collinear_tie_prefers_smallest_id(self):
        # every point strictly between the two query points has the same
        # summed distance, so the smallest id must win
        entries = [(8, 2.0, 0.0), (3, 5.0, 0.0), (6, 7.0, 0.0)]
        entries += [(i, 100.0 + i, 90.0) for i in range(20, 60)]
        assert euclidean_gnn(bulk_load(entries), [(0.0, 0.0), (10.0, 0.0)]) == 3

    def test_empty_points_rejected(self):
        index = bulk_load([(0, 0.0, 0.0)])
        with pytest.raises(ValueError, match="at least one point"):
            euclidean_gnn(index, [])


class TestClusteredData:
    def test_clustered_points_still_correct(self):
        rng = np.random.default_rng(410)
        centers = rng.random((6, 2)) * 1000
        pts = np.concatenate(
            [c + rng.normal(0, 2.0, (40, 2)) for c in centers]
        )
        entries = [
            (i, float(x), float(y)) for i, (x, y) in enumerate(pts)
        ]
        index = bulk_load(entries)
        for _ in range(200):
            q = centers[int(rng.integers(0, 6))] + rng.normal(0, 50.0, 2)
            qx, qy = float(q[0]), float(q[1])
            assert euclidean_nn(index, qx, qy) == linear_nn(entries, qx, qy)
