"""Distance oracle vs an independent all-pairs reference."""

import math
import os
import time
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
    load_network,
    min_additional_distance,
    minnesota_like,
    parse_edge_list,
    solve_exact,
    solve_heuristic,
)

from efgtp.synthetic import random_geometric_network
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
    matrix = full.rows(range(net.vertex_count))
    for s in range(net.vertex_count):
        assert np.array_equal(lazy.row(s), full.row(s))
        for t in range(net.vertex_count):
            assert lazy.dist(s, t) == matrix[s, t]


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
    matrix = full.rows(range(net.vertex_count))
    diff = np.argwhere(matrix != matrix.T)
    assert len(diff)
    for u, v in diff[:20].tolist():
        oracle = build_oracle(net)
        oracle.prefetch([v])
        assert oracle.dist(u, v) == matrix[u, v] == oracle.row(u)[v]
        assert full.dist(u, v) == matrix[u, v]
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


def test_vertex_validation():
    rng = np.random.default_rng(106)
    net = random_network(rng, 10)
    oracles = (build_oracle(net), build_oracle(net, FULL))
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

    moved = net.with_coords(np.zeros((12, 2)))  # coordinates leave the graph as it is
    assert moved.csgraph is graph and len(built) == 1

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
    # nor through the array that owns the rows' memory, in either mode
    for oracle in (oracle, build_oracle(net, FULL)):
        with pytest.raises(ValueError):
            oracle.row(0).base[0, 1] = 5.0


@pytest.fixture(scope="module")
def europe():
    return europe_like()


@pytest.fixture(scope="module")
def europe_full(europe):
    return build_oracle(europe, FULL)


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
        for oracle in (lazy, europe_full):
            for bad in (-1, -3, 1174):
                with pytest.raises(ValueError, match=f"vertex id {bad} out of range"):
                    oracle.rows([1, bad, 2])
                with pytest.raises(ValueError, match=f"vertex id {bad} out of range"):
                    oracle.rows([bad])
                with pytest.raises(ValueError, match=f"vertex id {bad} out of range"):
                    oracle.prefetch([1, bad])
        assert calls == [] and lazy._rows == {}

    def test_read_only(self, europe, europe_full):
        for oracle in (build_oracle(europe), europe_full):
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
        assert np.array_equal(bits(build_oracle(net, FULL).rows(range(net.vertex_count))), bits(ref))
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
        moved = lcc.with_coords(np.zeros((3, 2)))  # shares the labels lcc has built
        assert is_connected(moved) and labelled == [1, 1]
        assert component_labels(moved) is component_labels(lcc)


class TestForkedBuild:
    """A full build above the fork threshold runs in forked workers, each
    streaming a contiguous range of rows; the matrix must equal one serial
    Dijkstra call to the bit."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """The rows of each Dijkstra call this process makes (forked
        workers' calls are not seen), with the worker count set to 3."""
        calls = []
        search = efgtp.oracle._dijkstra

        def count(graph, **kw):
            out = search(graph, **kw)
            calls.append(len(out))
            return out

        monkeypatch.setattr(efgtp.oracle, "_dijkstra", count)
        monkeypatch.setattr(efgtp.oracle, "_workers", lambda: 3)
        return calls

    @staticmethod
    def bits(a):
        return np.ascontiguousarray(a).view(np.int64)

    def check_full(self, net, oracle):
        """oracle's rows are views of one private read-only array, bitwise
        equal to a serial directed search and to on-demand rows."""
        n = net.vertex_count
        matrix = oracle.row(0).base
        assert matrix.shape == (n, n) and matrix.flags.owndata and not matrix.flags.writeable
        assert all(oracle.row(s).base is matrix for s in (1, n // 2, n - 1))
        serial = dijkstra(net.csgraph, directed=True)
        assert np.array_equal(self.bits(matrix), self.bits(serial))
        sources = [int(s) for s in np.random.default_rng(115).integers(0, n, size=40)]
        assert np.array_equal(self.bits(build_oracle(net).rows(sources)), self.bits(matrix[sources]))

    @pytest.mark.parametrize("workers", [2, 3])
    def test_europe(self, europe, counted, monkeypatch, workers):
        monkeypatch.setattr(efgtp.oracle, "_workers", lambda: workers)
        oracle = build_oracle(europe, FULL)
        assert counted == []  # every row came from a worker
        self.check_full(europe, oracle)

    def test_minnesota(self, counted):
        net = minnesota_like()
        oracle = build_oracle(net, FULL)
        assert counted == []
        self.check_full(net, oracle)

    def test_threshold(self, counted):
        at = efgtp.oracle._FORK_MIN_VERTICES
        below = random_geometric_network(at - 1, at + at // 4, seed=5)
        self.check_full(below, build_oracle(below, FULL))
        assert counted[0] == at - 1  # one serial call
        del counted[:]
        above = random_geometric_network(at, at + at // 4, seed=5)
        oracle = build_oracle(above, FULL)
        assert counted == []
        self.check_full(above, oracle)

    def test_serial_without_fork(self, europe, counted, monkeypatch):
        monkeypatch.delattr(os, "fork")
        oracle = build_oracle(europe, FULL)
        assert counted == [europe.vertex_count]
        monkeypatch.undo()
        self.check_full(europe, oracle)

    def test_failed_worker_names_its_rows(self, europe, counted, monkeypatch, capfd):
        # three workers: rows 0..390, 391..781 and 782..1173; the second
        # fails on its first block while the third hangs
        search = efgtp.oracle._dijkstra

        def faulty(graph, directed, indices):
            if indices[0] == 391:
                raise OSError("injected fault")
            if indices[0] >= 782:
                time.sleep(60)
            return search(graph, directed=directed, indices=indices)

        monkeypatch.setattr(efgtp.oracle, "_dijkstra", faulty)
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match=r"distance rows 391\.\.781 failed .*exit code 1"):
            build_oracle(europe, FULL)
        assert time.perf_counter() - start < 30  # the hanging worker was killed
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # and every worker reaped
        assert "OSError: injected fault" in capfd.readouterr().err
        monkeypatch.setattr(efgtp.oracle, "_dijkstra", search)
        self.check_full(europe, build_oracle(europe, FULL))
