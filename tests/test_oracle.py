"""Distance oracle vs an independent all-pairs reference, plus cache I/O."""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra

import efgtp.network
import efgtp.oracle
from efgtp import (
    FULL,
    ON_DEMAND,
    CapacityError,
    RoadNetwork,
    assign_categories,
    build_oracle,
    component_labels,
    europe_like,
    format_edge_list,
    generate_query,
    is_connected,
    largest_connected_component,
    load_matrix,
    load_network,
    min_additional_distance,
    parse_edge_list,
    random_geometric_network,
    solve_exact,
    solve_heuristic,
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
    for net, message in (
        (
            parse_edge_list("a b 1\nx y 1\n"),
            "network is not connected; apply largest_connected_component first",
        ),
        (empty, "network has no vertices"),
    ):
        for mode in (ON_DEMAND, FULL):
            with pytest.raises(ValueError) as err:
                build_oracle(net, mode)
            assert str(err.value) == message


def test_dist_reads_the_row_of_its_first_vertex():
    # europe_like's weights round, and its matrix is not exactly symmetric
    net = europe_like()
    full = build_oracle(net, FULL)
    diff = np.argwhere(full.matrix != full.matrix.T)
    assert len(diff)
    for u, v in diff[:20].tolist():
        oracle = build_oracle(net)
        oracle.prefetch([v])
        assert oracle.dist(u, v) == full.matrix[u, v] == oracle.row(u)[v]
        assert full.dist(u, v) == full.matrix[u, v]
        assert sorted(oracle._rows) == sorted({u, v})


def test_capacity_guard_reports_requirement():
    rng = np.random.default_rng(105)
    net = random_network(rng, 40)
    with pytest.raises(CapacityError, match="12800"):
        build_oracle(net, mode=FULL, max_bytes=1000)  # 40*40*8 = 12800


def test_unknown_mode_rejected():
    net = random_network(np.random.default_rng(106), 10)
    with pytest.raises(ValueError, match="unknown oracle mode 'ful'"):
        build_oracle(net, mode="ful")


def test_vertex_validation(tmp_path):
    rng = np.random.default_rng(106)
    net = random_network(rng, 10)
    build_oracle(net, FULL).save_matrix(tmp_path / "dist.bin")
    oracles = (build_oracle(net), build_oracle(net, FULL), load_matrix(tmp_path / "dist.bin", net))
    for oracle in oracles:
        for bad in (-1, -3, 10):
            for read in (
                lambda: oracle.row(bad),
                lambda: oracle.dist(bad, 0),
                lambda: oracle.dist(0, bad),
                lambda: oracle.rows([1, bad]),
                lambda: oracle.prefetch([1, bad]),
            ):
                with pytest.raises(ValueError, match=f"vertex id {bad} out of range"):
                    read()
    assert oracles[0]._rows == {}


def test_prefetch_prewarms():
    rng = np.random.default_rng(107)
    net = random_network(rng, 20)
    ref = floyd_warshall(net)
    oracle = build_oracle(net)
    oracle.prefetch([3, 7])
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

    # same vertex count, other network: the distances give it away
    a = random_geometric_network(50, 80, seed=1)
    b = random_geometric_network(50, 80, seed=2)
    build_oracle(a, mode=FULL).save_matrix(path)
    assert load_matrix(path, a).dist(0, 1) == build_oracle(a).dist(0, 1)
    with pytest.raises(ValueError, match="matrix does not match this network") as err:
        load_matrix(path, b)
    assert str(path) in str(err.value)


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


def test_one_csr_per_network(monkeypatch):
    built, searched = [], []
    csr, dijkstra = efgtp.network.csr_matrix, efgtp.oracle._dijkstra
    monkeypatch.setattr(
        efgtp.network, "csr_matrix", lambda *a, **kw: built.append(1) or csr(*a, **kw)
    )
    monkeypatch.setattr(
        efgtp.oracle, "_dijkstra", lambda g, **kw: searched.append(g) or dijkstra(g, **kw)
    )
    net = random_network(np.random.default_rng(114), 12)
    build_oracle(net).rows([0, 5])
    build_oracle(net, FULL)
    assert is_connected(net)
    graph = net.csgraph
    assert len(built) == 1 and [g is graph for g in searched] == [True, True]
    assert graph.nnz == 2 * net.edge_count and (graph != graph.T).nnz == 0

    moved = net.with_coords(np.zeros((12, 2)))
    assert moved.csgraph is not graph and (moved.csgraph != graph).nnz == 0
    assert len(built) == 2

    split = parse_edge_list("a b 1\nb c 2\nx y 1\n")
    assert not is_connected(split)
    lcc = largest_connected_component(split)
    assert lcc.csgraph is not split.csgraph and lcc.csgraph.shape == (3, 3)
    assert build_oracle(lcc).dist(0, 2) == 3.0


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


@pytest.fixture(scope="module")
def europe_full(europe, tmp_path_factory):
    """A full-mode oracle and its matrix reloaded through load_matrix."""
    full = build_oracle(europe, FULL)
    path = tmp_path_factory.mktemp("matrix") / "dist.bin"
    full.save_matrix(path)
    return full, load_matrix(path, europe)


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

    def test_out_of_range_raises_before_dijkstra(self, europe, europe_full, monkeypatch):
        calls = []
        dijkstra = efgtp.oracle._dijkstra
        monkeypatch.setattr(
            efgtp.oracle, "_dijkstra", lambda *a, **kw: calls.append(1) or dijkstra(*a, **kw)
        )
        lazy = build_oracle(europe)
        for oracle in (lazy, *europe_full):
            for bad in (-1, -3, 1174):
                with pytest.raises(ValueError, match=f"vertex id {bad} out of range"):
                    oracle.rows([1, bad, 2])
                with pytest.raises(ValueError, match=f"vertex id {bad} out of range"):
                    oracle.rows([bad])
                with pytest.raises(ValueError, match=f"vertex id {bad} out of range"):
                    oracle.prefetch([1, bad])
        assert calls == [] and lazy._rows == {}

    def test_read_only(self, europe, europe_full):
        for oracle in (build_oracle(europe), *europe_full):
            rows = oracle.rows([0, 7])
            with pytest.raises(ValueError):
                rows[0, 0] = 5.0
            for s in (3, 0):
                with pytest.raises(ValueError):
                    oracle.row(s)[0] = 5.0
            assert oracle.row(3)[0] == oracle.dist(3, 0)


def test_rows_bitwise_equal_to_undirected_dijkstra():
    """The oracle searches the stored symmetric CSR as a directed graph;
    every row must equal scipy's undirected search to the bit."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    weights = {
        "integer": st.integers(1, 4).map(float),  # many exact ties
        "float": st.floats(0.1, 10.0),
        "mixed": st.floats(1e-3, 1e3),  # sums that round at several magnitudes
    }

    @st.composite
    def cases(draw):
        weight = weights[draw(st.sampled_from(sorted(weights)))]
        n = draw(st.integers(2, 14))
        edges = {(draw(st.integers(0, v - 1)), v): draw(weight) for v in range(1, n)}
        for _ in range(draw(st.integers(0, 2 * n))):
            u, v = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
            edges.setdefault((u, v), draw(weight))
        net = RoadNetwork(
            vertex_count=n,
            edges=tuple((u, v, w) for (u, v), w in sorted(edges.items())),
            external_ids=tuple(str(i) for i in range(n)),
        )
        return net, draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n + 2))

    def bits(a):
        return np.ascontiguousarray(a).view(np.int64)

    @hypothesis.given(cases())
    def check(case):
        net, sources = case
        ref = dijkstra(net.csgraph, directed=False)
        assert np.array_equal(bits(build_oracle(net, FULL).matrix), bits(ref))
        assert np.array_equal(bits(build_oracle(net).rows(sources)), bits(ref[sources]))
        single = build_oracle(net)
        for s in sources:
            assert np.array_equal(bits(single.rows([s])[0]), bits(ref[s]))

    check()


@pytest.fixture
def dijkstra_calls(monkeypatch):
    """The number of rows of each scipy Dijkstra call, in call order."""
    calls = []
    search = efgtp.oracle._dijkstra

    def counted(graph, **kw):
        out = search(graph, **kw)
        calls.append(len(out))
        return out

    monkeypatch.setattr(efgtp.oracle, "_dijkstra", counted)
    return calls


class TestColdBudget:
    """Dijkstra calls and rows of each operation on a fresh on-demand
    oracle, with b members whose 2b endpoints are distinct."""

    def query(self, net, k, b, D):
        cats = assign_categories(net, k, 10, seed=400 + k)
        q = generate_query(net, b, cats, D=D, seed=410 + k * b)
        assert len(set(q.group.sources + q.group.destinations)) == 2 * b
        return q

    @pytest.mark.parametrize("b", [1, 4])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_network_heuristic(self, europe, dijkstra_calls, k, b):
        q = self.query(europe, k, b, math.inf)
        solve_heuristic(q, build_oracle(europe))
        # one call for every member row, then one per chain row the NN
        # picks and the route's legs read (the last POI's row is not read)
        assert dijkstra_calls[0] == 2 * b
        if k == 1:
            assert dijkstra_calls == [2 * b]
        else:
            assert len(dijkstra_calls) == k and sum(dijkstra_calls) == 2 * b + k - 1

    @pytest.mark.parametrize("k", [1, 3])
    def test_euclidean_heuristic(self, europe, dijkstra_calls, k):
        solve_heuristic(self.query(europe, k, 4, math.inf), build_oracle(europe), index="euclidean")
        assert len(dijkstra_calls) == 1  # evaluate_route's one prefetch

    def test_infeasible_exact_and_mad(self, europe, dijkstra_calls):
        q = self.query(europe, 3, 4, 0.0)
        oracle = build_oracle(europe)
        assert not solve_exact(q, oracle).feasible
        assert dijkstra_calls == [8]  # the member rows; no pair is feasible
        min_additional_distance(q, oracle)
        assert dijkstra_calls == [8]  # MAD reads the same member rows

    def test_feasible_exact(self, europe, dijkstra_calls):
        q = self.query(europe, 3, 4, math.inf)
        assert solve_exact(q, build_oracle(europe)).feasible
        # members, the lowest-bound combination's k - 1 chain rows, then the
        # rest of the rows the landmark bound keeps: fewer than the 20 first
        # and interior rows
        assert len(dijkstra_calls) == 3 and dijkstra_calls[:2] == [8, 2]
        assert sum(dijkstra_calls[2:]) < 18
        # a warm oracle fetches every first and interior row in one call
        oracle = build_oracle(europe)
        oracle.prefetch([q.categories.categories[1][0]])
        del dijkstra_calls[:]
        assert solve_exact(q, oracle).feasible
        assert dijkstra_calls == [8, 19]


class TestConnectivityOnce:
    @pytest.fixture
    def labelled(self, monkeypatch):
        calls = []
        label = efgtp.network.connected_components
        monkeypatch.setattr(
            efgtp.network, "connected_components", lambda *a, **kw: calls.append(1) or label(*a, **kw)
        )
        return calls

    def test_load_then_two_builds(self, europe, labelled, tmp_path):
        graph = tmp_path / "graph.txt"
        graph.write_text(format_edge_list(europe))
        net = load_network(str(graph))
        build_oracle(net)
        build_oracle(net, FULL)
        assert labelled == [1]

    def test_derived_networks_label_their_own(self, labelled):
        split = parse_edge_list("a b 1\nb c 2\nx y 1\n")
        labels, count = component_labels(split)
        assert count == 2 and component_labels(split)[0] is labels
        with pytest.raises(ValueError):
            labels[0] = 1
        lcc = largest_connected_component(split)
        assert labelled == [1]
        assert is_connected(lcc) and labelled == [1, 1]
        moved = lcc.with_coords(np.zeros((3, 2)))
        assert is_connected(moved) and labelled == [1, 1, 1]
        assert is_connected(moved) and is_connected(lcc) and labelled == [1, 1, 1]
