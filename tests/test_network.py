"""Edge-list parsing, graph types, components, and category plumbing."""

import hashlib
import math
import re

import numpy as np
import pytest

from efgtp import (
    CategoryAssignment,
    GroupSpec,
    RoadNetwork,
    assign_categories,
    component_labels,
    europe_like,
    format_coords,
    format_edge_list,
    is_connected,
    largest_connected_component,
    minnesota_like,
    parse_coords,
    parse_edge_list,
    random_geometric_network,
)

from support import random_network


def path_network(n, weight=1.0):
    return RoadNetwork(
        vertex_count=n,
        edges=tuple((i, i + 1, weight) for i in range(n - 1)),
        external_ids=tuple(str(i) for i in range(n)),
    )


class TestParseEdgeList:
    def test_basic_weighted(self):
        net = parse_edge_list("a b 2.5\nb c 1\n")
        assert net.vertex_count == 3
        assert net.external_ids == ("a", "b", "c")
        assert net.edges == ((0, 1, 2.5), (1, 2, 1.0))

    def test_first_appearance_ids(self):
        net = parse_edge_list("9 4 1\n4 2 1\n2 9 1\n")
        # dense ids follow first appearance, not numeric order
        assert net.external_ids == ("9", "4", "2")
        assert net.internal_id("9") == 0
        assert net.internal_id("2") == 2

    def test_comments_and_blanks(self):
        text = "# heading\n\n% more\n  a b 1\n\n"
        net = parse_edge_list(text)
        assert net.edge_count == 1

    def test_missing_weight_errors(self):
        with pytest.raises(ValueError, match="line 1.*weight"):
            parse_edge_list("a b\n")

    def test_malformed_lines(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_edge_list("a b 1\nonly-one-token\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_edge_list("a b 1 extra junk\n")
        with pytest.raises(ValueError, match="malformed weight"):
            parse_edge_list("a b heavy\n")

    def test_weight_validation(self):
        for bad in ("0", "-1", "nan", "inf", "-inf"):
            msg = f"line 1: weight must be positive and finite, got {bad}"
            with pytest.raises(ValueError, match=msg):
                parse_edge_list(f"a b {bad}\n")

    def test_self_loops_dropped(self):
        net = parse_edge_list("a a 5\na b 1\n")
        assert net.vertex_count == 2
        assert net.edge_count == 1

    def test_parallel_edges_keep_minimum(self):
        net = parse_edge_list("a b 5\nb a 2\na b 9\n")
        assert net.edges == ((0, 1, 2.0),)
        # an equal-weight repeat keeps the pair at its first position
        net = parse_edge_list("a b 3\nb c 1\nc b 1\nb a 3\n")
        assert net.edges == ((0, 1, 3.0), (1, 2, 1.0))

    def test_empty_input(self):
        with pytest.raises(ValueError, match="no edges"):
            parse_edge_list("# nothing here\n")

    def test_matrix_market_banner_skips_size_line(self):
        text = "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 2 1.5\n2 3 2.5\n"
        net = parse_edge_list(text)
        assert net.vertex_count == 3
        assert net.external_ids == ("1", "2", "3")
        assert net.edges == ((0, 1, 1.5), (1, 2, 2.5))

    def test_round_trip_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            net = random_network(rng, int(rng.integers(2, 30)))
            again = parse_edge_list(format_edge_list(net))
            assert again == net


class TestRoadNetworkValidation:
    def test_edge_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            RoadNetwork(2, ((0, 5, 1.0),), ("a", "b"))

    def test_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            RoadNetwork(2, ((1, 1, 1.0),), ("a", "b"))

    def test_unnormalized_edge(self):
        with pytest.raises(ValueError, match="not normalized"):
            RoadNetwork(2, ((1, 0, 1.0),), ("a", "b"))

    def test_parallel_edge(self):
        with pytest.raises(ValueError, match="parallel"):
            RoadNetwork(2, ((0, 1, 1.0), (0, 1, 2.0)), ("a", "b"))

    def test_bad_weight(self):
        for bad in (-3.0, 0.0, math.inf, math.nan):
            msg = f"weight must be positive and finite, got {bad}"
            with pytest.raises(ValueError, match=msg):
                RoadNetwork(2, ((0, 1, bad),), ("a", "b"))

    def test_duplicate_external_ids(self):
        with pytest.raises(ValueError, match="distinct"):
            RoadNetwork(2, ((0, 1, 1.0),), ("a", "a"))

    def test_coords_shape(self):
        with pytest.raises(ValueError, match="shape"):
            RoadNetwork(2, ((0, 1, 1.0),), ("a", "b"), coords=np.zeros((3, 2)))
        # non-finite values are rejected by the constructor and by with_coords alike
        msg = r"^vertex b: coordinates must be finite, got \(nan, 1\.0\)$"
        with pytest.raises(ValueError, match=msg):
            RoadNetwork(2, ((0, 1, 1.0),), ("a", "b"), coords=np.array([[0, 0], [np.nan, 1]]))
        net = path_network(3)
        for bad, shown in ((math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan")):
            msg = rf"^vertex 1: coordinates must be finite, got \({shown}, 0\.0\)$"
            with pytest.raises(ValueError, match=msg):
                net.with_coords(np.array([[0, 0], [bad, 0], [1, 1]]))

    def test_edge_not_a_triple(self):
        for bad in ((0, 1), (0, 1, 1.0, 2)):
            with pytest.raises(ValueError, match=rf"^edge {re.escape(repr(bad))} is not a"):
                RoadNetwork(3, ((1, 2, 1.0), bad), ("a", "b", "c"))

    def test_non_string_external_id(self):
        # int ids would be index keys that no lookup (through str) can reach
        with pytest.raises(ValueError, match=r"^external id 0 is not a string$"):
            RoadNetwork(2, ((0, 1, 1.0),), (0, 1))
        with pytest.raises(ValueError, match=r"^external id b'b' is not a string$"):
            RoadNetwork(3, ((0, 1, 1.0),), ("a", b"b", 2))

    def test_unknown_external_id(self):
        net = path_network(3)
        with pytest.raises(KeyError, match="unknown vertex"):
            net.internal_id("zzz")

    def test_equality_includes_coords(self):
        net = path_network(3)
        c = np.arange(6, dtype=float).reshape(3, 2)
        assert net == path_network(3)
        assert net != net.with_coords(c)
        assert net.with_coords(c) == net.with_coords(c.copy())

    def test_with_coords_checks_only_the_coords(self, monkeypatch):
        net = path_network(3)
        graph, labels = net.csgraph, component_labels(net)
        checked = []
        monkeypatch.setattr(RoadNetwork, "_check_edges", lambda self: checked.append(self))
        c = np.arange(6).reshape(3, 2)  # ints, stored as float64
        moved = net.with_coords(c)
        assert checked == [] and net.coords is None
        assert moved.coords.dtype == np.float64 and np.array_equal(moved.coords, c)
        assert moved.edges is net.edges and moved._edge_array is net._edge_array
        assert moved._ext_index is net._ext_index and moved.internal_id("2") == 2
        assert moved.csgraph is graph and component_labels(moved) is labels
        with pytest.raises(ValueError, match="shape"):
            net.with_coords(np.zeros((2, 2)))
        assert net.with_coords(c).with_coords(None).coords is None


class TestCoords:
    def test_parse_and_format_round_trip(self):
        net = path_network(3)
        text = "0 0.25 1.5\n1 2.0 -3.0\n2 4.5 0.0\n"
        coords = parse_coords(text, net)
        assert coords.shape == (3, 2)
        assert coords[1, 1] == -3.0
        again = parse_coords(format_coords(net.with_coords(coords)), net)
        assert np.array_equal(again, coords)

    def test_unknown_ids_ignored_missing_rejected(self):
        net = path_network(2)
        coords = parse_coords("0 0 0\n1 1 1\nghost 9 9\n", net)
        assert coords[1, 0] == 1.0
        with pytest.raises(ValueError, match="no coordinates"):
            parse_coords("0 0 0\n", net)

    def test_malformed_coord_line(self):
        net = path_network(2)
        with pytest.raises(ValueError, match="line 1"):
            parse_coords("0 only\n1 1 1\n", net)
        with pytest.raises(ValueError, match="malformed"):
            parse_coords("0 x y\n1 1 1\n", net)
        for x, y in (("nan", "1"), ("1", "nan"), ("inf", "0"), ("0", "-inf")):
            with pytest.raises(ValueError, match="line 2: coordinates must be finite"):
                parse_coords(f"0 0 0\n1 {x} {y}\n", net)

    def test_repeated_id_rejected(self):
        net = path_network(2)
        with pytest.raises(ValueError, match=r"^line 3: second coordinate line for id '1'$"):
            parse_coords("0 0 0\n1 3 4\n1 5 6\n", net)


class TestWriters:
    UNREADABLE = ("#a", "%a", "a b", "", "a\tb", "a\nb", "\xa0")

    @pytest.mark.parametrize("bad", UNREADABLE)
    @pytest.mark.parametrize("writer", [format_edge_list, format_coords])
    def test_unreadable_id_rejected(self, writer, bad):
        net = RoadNetwork(3, ((0, 1, 1.0), (1, 2, 2.0)), ("b", bad, "c"), np.zeros((3, 2)))
        message = rf"^vertex id {re.escape(repr(bad))} cannot be written"
        with pytest.raises(ValueError, match=message):
            writer(net)

    def test_first_unreadable_id_named(self):
        net = RoadNetwork(3, ((0, 1, 1.0), (1, 2, 2.0)), ("#a", "b", "c d"), np.zeros((3, 2)))
        for writer in (format_edge_list, format_coords):
            with pytest.raises(ValueError, match=r"^vertex id '#a' cannot be written"):
                writer(net)

    def test_ids_that_read_back_are_written(self):
        # a comment sign inside an id, or an id of another script, reads back as itself
        net = RoadNetwork(3, ((0, 1, 1.0), (1, 2, 2.0)), ("a#", "b%", "\xe9"), np.ones((3, 2)))
        again = parse_edge_list(format_edge_list(net))
        assert again.with_coords(parse_coords(format_coords(net), again)) == net


class TestCategories:
    def test_assignment_invariants(self):
        with pytest.raises(ValueError, match="at least one category"):
            CategoryAssignment(())
        with pytest.raises(ValueError, match="empty"):
            CategoryAssignment(((0, 1), ()))
        with pytest.raises(ValueError, match="more than one"):
            CategoryAssignment(((0, 1), (1, 2)))
        with pytest.raises(ValueError, match="more than one"):
            CategoryAssignment(((0, 0),))

    def test_counts(self):
        cats = CategoryAssignment(((0, 1), (2, 3, 4), (5,)))
        assert cats.k == 3
        assert cats.sizes() == (2, 3, 1)
        assert cats.combination_count() == 6

    def test_sorted_ids_cache(self):
        rng = np.random.default_rng(190)
        for _ in range(20):
            ids = [int(v) for v in rng.permutation(60)]
            cats = CategoryAssignment((tuple(ids[:1]), tuple(ids[1:20]), tuple(ids[20:])))
            built = cats.sorted_ids
            assert len(built) == cats.k
            for arr, cat in zip(built, cats.categories):
                assert arr.dtype == np.int64 and not arr.flags.writeable
                assert arr.tolist() == sorted(cat)
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = arr[-1]
            assert cats.sorted_ids is built
            category_of = cats.category_of
            assert category_of == {v: i for i, cat in enumerate(cats.categories) for v in cat}
            assert cats.category_of is category_of
            with pytest.raises(TypeError):
                category_of[ids[0]] = 1

    def test_sorted_ids_leave_equality_and_hash_alone(self):
        a = CategoryAssignment(((5, 1, 3), (2,)))
        b = CategoryAssignment(((5, 1, 3), (2,)))
        assert a == b and hash(a) == hash(b)
        a.sorted_ids, a.category_of
        assert a == b and hash(a) == hash(b)
        b.sorted_ids, b.category_of
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        # same ids, same sorted_ids, other listed order: a different assignment
        c = CategoryAssignment(((1, 3, 5), (2,)))
        assert [x.tolist() for x in c.sorted_ids] == [x.tolist() for x in a.sorted_ids]
        assert a != c

    def test_ids_beyond_int64_rejected(self):
        CategoryAssignment(((2**63 - 1,),))
        with pytest.raises(ValueError, match=rf"^category 1 has vertex id {2**63} beyond the"):
            CategoryAssignment(((0,), (2**63,)))

    def test_group_spec(self):
        with pytest.raises(ValueError, match="equal length"):
            GroupSpec(sources=(0, 1), destinations=(2,))
        with pytest.raises(ValueError, match="at least one"):
            GroupSpec(sources=(), destinations=())
        assert GroupSpec((0, 1), (2, 3)).b == 2

    def test_validate_against_names_the_first_offender(self):
        net = path_network(6)
        CategoryAssignment(((0, 5), (3,))).validate_against(net)
        # the offenders sit in a later category, in scan order 9 then 7
        cats = CategoryAssignment(((0, 1), (2, 9, 3), (7,)))
        with pytest.raises(ValueError, match=r"^category vertex 9 not in network$"):
            cats.validate_against(net)
        # the first offender in listed order, not the largest; cache built or not
        for warm in (False, True):
            cats = CategoryAssignment(((4, 0), (2, 8, 3, 12, 6)))
            if warm:
                cats.sorted_ids
            with pytest.raises(ValueError, match=r"^category vertex 8 not in network$"):
                cats.validate_against(net)
        GroupSpec((0, 5), (1, 2)).validate_against(net)
        for group, bad in (
            (GroupSpec((0, 1), (2, 6)), 6),
            (GroupSpec((0, 1), (-1, 8)), -1),
            (GroupSpec((0, 8), (-1, 2)), 8),
        ):
            with pytest.raises(ValueError, match=rf"^group vertex {bad} not in network$"):
                group.validate_against(net)

    def test_assign_categories_deterministic_and_disjoint(self):
        rng = np.random.default_rng(3)
        net = random_network(rng, 40)
        a = assign_categories(net, 3, 5, seed=11)
        b = assign_categories(net, 3, 5, seed=11)
        c = assign_categories(net, 3, 5, seed=12)
        assert a == b
        assert a != c
        assert a.sizes() == (5, 5, 5)
        flat = [v for cat in a.categories for v in cat]
        assert len(set(flat)) == 15

    def test_assign_categories_insufficient(self):
        net = path_network(4)
        with pytest.raises(ValueError, match="insufficient"):
            assign_categories(net, 2, 3, seed=0)
        with pytest.raises(ValueError, match="positive"):
            assign_categories(net, 0, 3, seed=0)


class TestComponents:
    def test_connected_path(self):
        net = path_network(5)
        assert is_connected(net)
        labels, count = component_labels(net)
        assert count == 1
        assert set(labels) == {0}

    def test_two_components(self):
        # edges: 0-1-2 and 3-4 (vertices appear in that order)
        net = parse_edge_list("a b 1\nb c 1\nx y 1\n")
        labels, count = component_labels(net)
        assert count == 2
        assert list(labels) == [0, 0, 0, 1, 1]
        assert not is_connected(net)
        # components {0, 4}, {1, 3, 5} and the isolated {2}, interleaved by id:
        # labels follow each component's smallest vertex id
        net = RoadNetwork(6, ((0, 4, 1.0), (1, 3, 2.5), (3, 5, 1.0)), tuple("abcdef"))
        labels, count = component_labels(net)
        assert count == 3
        assert list(labels) == [0, 1, 2, 1, 0, 1]

    def test_largest_component_keeps_bigger_side(self):
        net = parse_edge_list("a b 1\nb c 1\nx y 1\n")
        lcc = largest_connected_component(net)
        assert lcc.vertex_count == 3
        assert lcc.external_ids == ("a", "b", "c")
        assert lcc.edge_count == 2
        # the filter and the parser assign ids alike: the component equals a
        # parse of only its own lines
        lines = ["p q 1", "a b 2", "q r 1", "b c 3", "c d 1", "b a 1", "d a 4"]
        lcc = largest_connected_component(parse_edge_list("\n".join(lines)))
        kept = [line for line in lines if line[0] in "abcd"]
        assert lcc == parse_edge_list("\n".join(kept))
        assert lcc.external_ids == ("a", "b", "c", "d")

    def test_largest_component_tie_prefers_first(self):
        net = parse_edge_list("a b 1\nx y 1\n")
        lcc = largest_connected_component(net)
        assert lcc.external_ids == ("a", "b")
        # an edgeless network: every vertex is its own component, vertex 0 wins
        coords = np.arange(8, dtype=float).reshape(4, 2)
        lcc = largest_connected_component(RoadNetwork(4, (), tuple("wxyz"), coords))
        assert lcc == RoadNetwork(1, (), ("w",), coords[:1])

    def test_unchanged_when_connected(self):
        net = path_network(4)
        assert largest_connected_component(net) is net

    def test_coords_carried_through(self):
        net = parse_edge_list("a b 1\nx y 1\nx z 1\n")
        coords = np.arange(10, dtype=float).reshape(5, 2)
        lcc = largest_connected_component(net.with_coords(coords))
        assert lcc.external_ids == ("x", "y", "z")
        assert np.array_equal(lcc.coords, coords[2:])

    def test_remapped_edges_stay_normalized(self):
        # (1,3) remaps to (2,1) unless renormalized: 2 and 3 are seen first
        net = RoadNetwork(
            vertex_count=5,
            edges=((0, 4, 1.0), (2, 3, 1.0), (1, 3, 1.0)),
            external_ids=("a", "b", "c", "d", "e"),
        )
        lcc = largest_connected_component(net)
        assert lcc.vertex_count == 3
        assert all(u < v for u, v, _ in lcc.edges)
        assert lcc.external_ids == ("c", "d", "b")

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            largest_connected_component(RoadNetwork(0, (), ()))

    def test_random_lcc_is_connected(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = random_network(rng, int(rng.integers(3, 15)))
            b = random_network(rng, int(rng.integers(3, 15)))
            # disjoint union of two random connected graphs
            shift = a.vertex_count
            merged = RoadNetwork(
                vertex_count=a.vertex_count + b.vertex_count,
                edges=a.edges + tuple((u + shift, v + shift, w) for u, v, w in b.edges),
                external_ids=tuple(f"a{e}" for e in a.external_ids)
                + tuple(f"b{e}" for e in b.external_ids),
            )
            lcc = largest_connected_component(merged)
            assert is_connected(lcc)
            assert lcc.vertex_count == max(a.vertex_count, b.vertex_count)


def test_benchmark_presets_are_pinned():
    # a changed digest means the benchmark's input networks changed
    digests = {
        europe_like: "b525f34bbcff950b4b94f071c7538161d88b53470f01127a7c2c9423a229f9a2",
        minnesota_like: "8103e93c9b56c83373c3a32d44744855e20201b3807941b063b846d2b778d5ab",
    }
    for make, digest in digests.items():
        net = make()
        text = format_edge_list(net) + format_coords(net)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, make.__name__


@pytest.mark.parametrize(
    "shape, digest",
    [
        ((2, 1, 0), "cc94b7a2900004cb8d27d5aecf583d5d42e8c1d09be121bba89637e2d2c8636a"),
        ((14, 91, 14), "5c12fe0640b9dbd9485c20fbd5076365f8ebbf603d2be45dc0c50675edd3d9c7"),
        ((500, 900, 7), "c838bc34d070771f2b111a6afd7d82322bdbe995b27171fc07930702ba2137f0"),
        ((20_000, 25_000, 3), "238b7dac5ebec1d5703516245b4ab7a4af95fe8d316ecd090df48254fc49b07f"),
    ],
)
def test_generated_networks_are_pinned(shape, digest):
    # the smallest network, a complete graph, and two sizes where the first
    # tree query leaves rows open; the digests were taken before the
    # generator read its predecessors from widened tree queries
    net = random_geometric_network(*shape)
    text = format_edge_list(net) + format_coords(net)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
