"""Distance oracle vs an independent all-pairs reference, plus cache I/O."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from efgtp import (
    FULL,
    ON_DEMAND,
    CapacityError,
    RoadNetwork,
    build_oracle,
    europe_like,
    load_matrix,
    parse_edge_list,
)

from support import floyd_warshall, random_network


def test_rows_match_floyd_warshall_exactly():
    # integer weights: both algorithms sum integers, so equality is bitwise
    rng = np.random.default_rng(100)
    for _ in range(30):
        net = random_network(rng, int(rng.integers(2, 41)))
        ref = floyd_warshall(net)
        oracle = build_oracle(net)
        for s in range(net.vertex_count):
            assert np.array_equal(oracle.row(s), ref[s])


def test_full_mode_matches_on_demand():
    rng = np.random.default_rng(101)
    net = random_network(rng, 30)
    lazy = build_oracle(net, mode=ON_DEMAND)
    full = build_oracle(net, mode=FULL)
    for s in range(net.vertex_count):
        assert np.array_equal(lazy.row(s), full.row(s))
        for t in range(net.vertex_count):
            assert lazy.dist(s, t) == full.matrix[s, t]


def test_symmetry_and_identity():
    rng = np.random.default_rng(102)
    net = random_network(rng, 25)
    oracle = build_oracle(net)
    for s in range(net.vertex_count):
        assert oracle.dist(s, s) == 0.0
    for _ in range(100):
        u, v = rng.integers(0, net.vertex_count, size=2)
        assert oracle.dist(int(u), int(v)) == oracle.dist(int(v), int(u))


def test_triangle_inequality():
    rng = np.random.default_rng(103)
    net = random_network(rng, 25)
    oracle = build_oracle(net)
    for _ in range(200):
        a, b, c = (int(x) for x in rng.integers(0, net.vertex_count, size=3))
        assert oracle.dist(a, c) <= oracle.dist(a, b) + oracle.dist(b, c) + 1e-12


def test_edge_weight_is_upper_bound():
    rng = np.random.default_rng(104)
    net = random_network(rng, 25)
    oracle = build_oracle(net)
    for u, v, w in net.edges:
        assert oracle.dist(u, v) <= w


def test_disconnected_network_rejected():
    empty = RoadNetwork(vertex_count=0, edges=(), external_ids=())
    for net in (parse_edge_list("a b 1\nx y 1\n"), empty):
        for mode in (ON_DEMAND, FULL):
            with pytest.raises(ValueError) as err:
                build_oracle(net, mode)
            assert str(err.value) == (
                "network is not connected; apply largest_connected_component first"
            )


def test_dist_reads_the_row_of_its_first_vertex():
    # europe_like's weights round, and its matrix is not exactly symmetric
    net = europe_like()
    full = build_oracle(net, FULL)
    diff = np.argwhere(full.matrix != full.matrix.T)
    assert len(diff)
    for u, v in diff[:20].tolist():
        oracle = build_oracle(net, required_sources=[v])
        assert oracle.dist(u, v) == full.matrix[u, v] == oracle.row(u)[v]
        assert full.dist(u, v) == full.matrix[u, v]
        assert sorted(oracle._rows) == sorted({u, v})


def test_capacity_guard_reports_requirement():
    rng = np.random.default_rng(105)
    net = random_network(rng, 40)
    with pytest.raises(CapacityError, match="12800"):
        build_oracle(net, mode=FULL, max_bytes=1000)  # 40*40*8 = 12800


def test_vertex_validation():
    rng = np.random.default_rng(106)
    net = random_network(rng, 10)
    oracle = build_oracle(net)
    with pytest.raises(ValueError):
        oracle.row(-1)
    with pytest.raises(ValueError):
        oracle.dist(0, 10)


def test_required_sources_prewarm():
    rng = np.random.default_rng(107)
    net = random_network(rng, 20)
    ref = floyd_warshall(net)
    oracle = build_oracle(net, required_sources=[3, 7])
    assert sorted(oracle._rows) == [3, 7]
    fresh = build_oracle(net)
    for s in (3, 7):
        row = oracle.row(s)
        assert row.tobytes() == fresh.row(s).tobytes()
        with pytest.raises(ValueError):
            row[0] = 5.0
    assert np.array_equal(oracle.row(3), ref[3])
    assert oracle.dist(7, 11) == ref[7, 11]


def test_matrix_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(108)
    net = random_network(rng, 15)
    full = build_oracle(net, mode=FULL)
    path = tmp_path / "dist.bin"
    full.save_matrix(path)
    again = load_matrix(path, net)
    assert np.array_equal(again.matrix, full.matrix)
    assert again.dist(0, 14) == full.dist(0, 14)


def test_save_requires_full_mode(tmp_path):
    rng = np.random.default_rng(109)
    net = random_network(rng, 10)
    oracle = build_oracle(net, mode=ON_DEMAND)
    with pytest.raises(ValueError, match="full"):
        oracle.save_matrix(tmp_path / "nope.bin")


def test_load_matrix_validation(tmp_path):
    rng = np.random.default_rng(110)
    net = random_network(rng, 10)
    full = build_oracle(net, mode=FULL)
    path = tmp_path / "dist.bin"
    full.save_matrix(path)

    other = random_network(rng, 11)
    with pytest.raises(ValueError, match="matrix is for 10 vertices"):
        load_matrix(path, other)

    bad_magic = tmp_path / "magic.bin"
    bad_magic.write_bytes(b"WRONGMAG" + path.read_bytes()[8:])
    with pytest.raises(ValueError, match="magic"):
        load_matrix(bad_magic, net)

    truncated = tmp_path / "short.bin"
    truncated.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(ValueError, match="payload"):
        load_matrix(truncated, net)


def test_concurrent_queries_consistent():
    rng = np.random.default_rng(111)
    net = random_network(rng, 30)
    ref = floyd_warshall(net)
    oracle = build_oracle(net)
    pairs = [(int(u), int(v)) for u, v in rng.integers(0, 30, size=(200, 2))]

    def work(chunk):
        rows = oracle.rows([u for u, _ in chunk])
        return [oracle.dist(u, v) for u, v in chunk], rows

    chunks = [pairs[i::4] for i in range(4)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(work, chunks))
    for chunk, (vals, rows) in zip(chunks, results):
        for (u, v), d, row in zip(chunk, vals, rows):
            assert d == ref[u, v]
            assert np.array_equal(row, ref[u])


def test_rows_are_read_only():
    rng = np.random.default_rng(112)
    net = random_network(rng, 10)
    oracle = build_oracle(net)
    row = oracle.row(0)
    with pytest.raises(ValueError):
        row[0] = 5.0


@pytest.fixture(scope="module")
def europe():
    return europe_like()


class TestRows:
    """rows() fetches many rows with one Dijkstra call; europe_like has
    non-integer weights, so bitwise equality with row() is not trivial."""

    def test_bitwise_equal_to_row(self, europe):
        sources = [int(s) for s in np.random.default_rng(113).integers(0, 1174, size=40)]
        batched = build_oracle(europe).rows(sources)
        single = build_oracle(europe)
        assert batched.shape == (40, europe.vertex_count)
        for s, row in zip(sources, batched):
            assert row.tobytes() == single.row(s).tobytes()
        full = build_oracle(europe, FULL)
        for s, row in zip(sources, full.rows(sources)):
            assert row.tobytes() == full.row(s).tobytes()

    def test_duplicate_and_cached_sources(self, europe):
        oracle = build_oracle(europe)
        cached = oracle.row(5)
        rows = oracle.rows([5, 9, 5, 9, 2])
        assert sorted(oracle._rows) == [2, 5, 9]
        assert oracle.row(5) is cached  # a memoized row is not recomputed
        fresh = build_oracle(europe)
        for s, row in zip([5, 9, 5, 9, 2], rows):
            assert row.tobytes() == fresh.row(s).tobytes()
        assert oracle.rows([]).shape == (0, europe.vertex_count)

    def test_out_of_range_raises_before_dijkstra(self, europe):
        oracle = build_oracle(europe)
        with pytest.raises(ValueError, match="vertex id 1174 out of range"):
            oracle.rows([1, 1174, 2])
        with pytest.raises(ValueError, match="vertex id -3 out of range"):
            oracle.rows([-3])
        with pytest.raises(ValueError, match="vertex id 1174 out of range"):
            oracle.prefetch([1, 1174])
        assert oracle._rows == {}

    def test_read_only(self, europe):
        for oracle in (build_oracle(europe), build_oracle(europe, FULL)):
            rows = oracle.rows([0, 7])
            with pytest.raises(ValueError):
                rows[0, 0] = 5.0
        oracle = build_oracle(europe)
        oracle.rows([3])
        with pytest.raises(ValueError):
            oracle.row(3)[0] = 5.0
