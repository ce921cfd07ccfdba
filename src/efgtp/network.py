"""Road-network datasets: parsing, validation, and category labeling.

Networks are undirected weighted graphs with dense 0-based vertex ids.
The edge-list parser and the component filter both build their networks
through one pass, `_densify`: ids in first-appearance order over the edge
sequence, each pair once as u < v with its minimum weight. That keeps
parse -> serialize -> parse an exact round trip.

Coordinates are read on whole arrays, not line by line: the text is split
into lines once and into tokens once, with one token count per line; each
check runs over all lines at once, and the first bad line (in line order)
raises the message a line-by-line reading would give it. tests/support.py
keeps that line-by-line reading as the reference.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Hashable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from types import MappingProxyType
from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

Edge = tuple[int, int, float]

_INT64_MAX = np.iinfo(np.int64).max


@dataclass(eq=False)
class RoadNetwork:
    """Undirected graph of POIs with positive edge lengths.

    edges hold (u, v, w) with u < v, no self-loops, no parallel edges.
    external_ids[i] is the original dataset token for internal id i.
    coords, when present, is an (n, 2) float64 array of finite planar positions.
    csgraph is the symmetric CSR adjacency, built from the edges on first use;
    component_labels stores its result beside it on first use, and the
    writers their check of the external ids on the first write. The edges are
    also kept as an (m, 3) float64 array of (u, v, w) rows, which the checks
    and the CSR build read.
    """

    vertex_count: int
    edges: tuple[Edge, ...]
    external_ids: tuple[str, ...]
    coords: Optional[np.ndarray] = None
    _ext_index: dict[str, int] = field(init=False, repr=False)
    _edge_array: np.ndarray = field(init=False, repr=False)
    _csgraph: Optional[csr_matrix] = field(init=False, repr=False, default=None)
    _components: Optional[tuple[np.ndarray, int]] = field(init=False, repr=False, default=None)

    def __post_init__(self):
        n = self.vertex_count
        if n < 0:
            raise ValueError("vertex_count must be nonnegative")
        if len(self.external_ids) != n:
            raise ValueError("external_ids must have one entry per vertex")
        if not all(map(isinstance, self.external_ids, repeat(str))):
            bad = next(ext for ext in self.external_ids if not isinstance(ext, str))
            raise ValueError(f"external id {bad!r} is not a string")
        if set(map(len, self.edges)) - {3}:
            bad = next(e for e in self.edges if len(e) != 3)
            raise ValueError(f"edge {bad!r} is not a (u, v, w) triple")
        edges = chain.from_iterable(self.edges)
        self._edge_array = np.fromiter(edges, np.float64, 3 * len(self.edges)).reshape(-1, 3)
        if self.edges:
            self._check_edges()
        self._check_coords()
        self._ext_index = dict(zip(self.external_ids, range(n)))
        if len(self._ext_index) != n:
            raise ValueError("external ids must be distinct")

    def _check_coords(self) -> None:
        if self.coords is None:
            return
        n = self.vertex_count
        coords = np.asarray(self.coords, dtype=np.float64)
        if coords.shape != (n, 2):
            raise ValueError(f"coords must have shape ({n}, 2), got {coords.shape}")
        bad = np.flatnonzero(~np.isfinite(coords).all(axis=1))
        if bad.size:
            i = int(bad[0])
            x, y = coords[i].tolist()  # plain floats in the message
            ext = self.external_ids[i]
            raise ValueError(f"vertex {ext}: coordinates must be finite, got ({x}, {y})")
        self.coords = coords

    def _check_edges(self) -> None:
        """Check every edge in one pass over its columns; the first offender,
        in edge order, raises the message of its first failed check."""
        n = self.vertex_count
        u, v, w = self._edge_array.T
        bad = ~((0 <= u) & (u < n) & (0 <= v) & (v < n)) | (u >= v)
        bad |= ~((0.0 < w) & (w < math.inf))
        # u * n + v is exact and one-to-one on in-range pairs while n * n < 2**53;
        # an edge out of range fails before any later edge that shares its key
        key = u * n + v
        again = np.zeros(len(key), dtype=bool)
        ranked = np.sort(key)
        if (ranked[1:] == ranked[:-1]).any():  # some pair repeats: mark all but its first
            again[:] = True
            again[np.unique(key, return_index=True)[1]] = False
        bad |= again
        if not bad.any():
            return
        i = int(np.argmax(bad))
        u, v, w = self.edges[i]
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) endpoint out of range [0, {n})")
        if u == v:
            raise ValueError(f"self-loop on vertex {u}")
        if u > v:
            raise ValueError(f"edge ({u}, {v}) not normalized to u < v")
        if again[i]:
            raise ValueError(f"parallel edge ({u}, {v})")
        raise ValueError(f"edge ({u}, {v}) weight must be positive and finite, got {w}")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def csgraph(self) -> csr_matrix:
        if self._csgraph is None:
            n = self.vertex_count
            e = self._edge_array
            u, v, w = e[:, 0].astype(np.int64), e[:, 1].astype(np.int64), e[:, 2]
            rows, cols = np.concatenate((u, v)), np.concatenate((v, u))  # both directions
            self._csgraph = csr_matrix((np.concatenate((w, w)), (rows, cols)), shape=(n, n))
        return self._csgraph

    @cached_property
    def _unwritable_id(self) -> Optional[str]:
        """The first external id that would not read back from a written
        file, or None (_unwritable), found once per network."""
        return _unwritable(self.external_ids)

    def internal_id(self, external_id: str) -> int:
        try:
            return self._ext_index[str(external_id)]
        except KeyError:
            raise KeyError(f"unknown vertex id {external_id!r}") from None

    def with_coords(self, coords: np.ndarray) -> "RoadNetwork":
        """This network with these coordinates. Only the coordinates are
        checked; the edge array, the id index and any CSR, component
        labels or id check already made are shared with this network."""
        out = copy.copy(self)
        out.coords = coords
        out._check_coords()
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, RoadNetwork):
            return NotImplemented
        if (self.vertex_count, self.edges, self.external_ids) != (
            other.vertex_count,
            other.edges,
            other.external_ids,
        ):
            return False
        if (self.coords is None) != (other.coords is None):
            return False
        return self.coords is None or bool(np.array_equal(self.coords, other.coords))


@dataclass(frozen=True)
class CategoryAssignment:
    """Ordered POI categories; position within a category is significant
    for enumeration order and tie-breaking.

    sorted_ids holds each category's ids as a read-only ascending int64
    array, and category_of is a read-only map from each POI to its
    category's index. Each is built on first read and kept for the
    assignment's lifetime. Neither is a field, so equality and hashing
    still read the categories alone.
    """

    categories: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.categories:
            raise ValueError("categories must hold at least one category")
        seen: set[int] = set()
        for i, cat in enumerate(self.categories):
            if not cat:
                raise ValueError(f"category {i} is empty")
            for v in cat:
                if v < 0:
                    raise ValueError(f"category {i} has negative vertex id {v}")
                if v > _INT64_MAX:  # sorted_ids stores int64
                    raise ValueError(f"category {i} has vertex id {v} beyond the int64 range")
                if v in seen:
                    raise ValueError(f"vertex {v} appears in more than one category")
                seen.add(v)

    @property
    def k(self) -> int:
        return len(self.categories)

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.categories)

    def combination_count(self) -> int:
        return math.prod(self.sizes())

    @cached_property
    def sorted_ids(self) -> tuple[np.ndarray, ...]:
        out = []
        for cat in self.categories:
            ids = np.sort(np.array(cat, dtype=np.int64))
            ids.setflags(write=False)
            out.append(ids)
        return tuple(out)

    @cached_property
    def category_of(self) -> Mapping[int, int]:
        return MappingProxyType({v: i for i, cat in enumerate(self.categories) for v in cat})

    def validate_against(self, net: RoadNetwork) -> None:
        n = net.vertex_count
        for cat, ids in zip(self.categories, self.sorted_ids):
            if ids[-1] >= n:
                bad = next(v for v in cat if v >= n)  # the first offender
                raise ValueError(f"category vertex {bad} not in network")


@dataclass(frozen=True)
class GroupSpec:
    """Group members' source and destination vertices, index-aligned."""

    sources: tuple[int, ...]
    destinations: tuple[int, ...]

    def __post_init__(self):
        if len(self.sources) != len(self.destinations):
            raise ValueError("sources and destinations must have equal length")
        if not self.sources:
            raise ValueError("group must have at least one member")

    @property
    def b(self) -> int:
        return len(self.sources)

    def validate_against(self, net: RoadNetwork) -> None:
        n = net.vertex_count
        members = self.sources + self.destinations
        if 0 <= min(members) and max(members) < n:
            return
        for v in members:  # name the first offender
            if not (0 <= v < n):
                raise ValueError(f"group vertex {v} not in network")


def _densify(
    triples: Iterable[tuple[Hashable, Hashable, float]],
) -> tuple[list, tuple[Edge, ...]]:
    """Labelled edges (x, y, w) -> (labels, edges) over dense ids.

    Labels get ids in first-appearance order, x before y; labels[i] is the
    label of id i. Each unordered pair is kept once as (u, v) with u < v,
    at the position of its first appearance, with its minimum weight.
    """
    ids: dict = {}
    edges: list[list] = []  # [u, v, w], mutable for the min-weight rule
    pos: dict[tuple[int, int], int] = {}
    for x, y, w in triples:
        u = ids.setdefault(x, len(ids))
        v = ids.setdefault(y, len(ids))
        pair = (u, v) if u < v else (v, u)
        i = pos.setdefault(pair, len(edges))
        if i == len(edges):
            edges.append([*pair, w])
        elif w < edges[i][2]:
            edges[i][2] = w
    return list(ids), tuple((u, v, w) for u, v, w in edges)


def _edge_lines(text: str) -> Iterator[tuple[str, str, float]]:
    """(u_token, v_token, weight) per edge line of an edge list, self-loops skipped."""
    size_line_pending = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("%") or line.startswith("#"):
            if line.lower().startswith("%%matrixmarket"):
                size_line_pending = True
            continue
        if size_line_pending:
            # MatrixMarket coordinate size line: "rows cols nnz"
            size_line_pending = False
            continue
        parts = line.split()
        if len(parts) < 2 or len(parts) > 3:
            raise ValueError(f"line {lineno}: malformed edge line {line!r}")
        u_tok, v_tok = parts[0], parts[1]
        if u_tok == v_tok:
            continue  # self-loop
        if len(parts) < 3:
            raise ValueError(f"line {lineno}: missing edge weight in {line!r}")
        try:
            w = float(parts[2])
        except ValueError:
            raise ValueError(f"line {lineno}: malformed weight {parts[2]!r}") from None
        if not (0.0 < w < math.inf):
            raise ValueError(
                f"line {lineno}: weight must be positive and finite, got {parts[2]}"
            )
        yield u_tok, v_tok, w


def parse_edge_list(text: str) -> RoadNetwork:
    """Parse a line-oriented edge list (`u v w`) into a RoadNetwork.

    Lines starting with '%' or '#' are comments. A MatrixMarket banner makes
    the following size line be skipped. Vertex tokens are remapped to dense
    0-based ids in first-appearance order; parallel edges collapse to the
    minimum weight; self-loops are dropped.
    """
    labels, edges = _densify(_edge_lines(text))
    if not edges:
        raise ValueError("empty input: no edges found")
    return RoadNetwork(vertex_count=len(labels), edges=edges, external_ids=tuple(labels))


def _unwritable(ids: tuple[str, ...]) -> Optional[str]:
    """The first id that would not read back as itself, or None: every id
    must be one whitespace-free token that does not start with '%' or '#'."""
    joined = " " + " ".join(ids)
    # once the split gives the ids back, a space is only ever before an id
    if joined.split() == list(ids) and " %" not in joined and " #" not in joined:
        return None
    return next(ext for ext in ids if ext.split() != [ext] or ext.startswith(("%", "#")))


def _check_written_ids(net: RoadNetwork) -> None:
    """Raise unless every external id of net reads back as itself. The ids
    are checked on the first write of the network and the verdict kept."""
    bad = net._unwritable_id
    if bad is not None:
        raise ValueError(
            f"vertex id {bad!r} cannot be written: ids are whitespace-free tokens"
            " that do not start with '%' or '#'"
        )


def format_edge_list(net: RoadNetwork) -> str:
    """Serialize to `u v w` lines using external ids; inverse of parse.
    An id that would not read back as itself raises ValueError."""
    _check_written_ids(net)
    ext = net.external_ids
    return "\n".join([f"{ext[u]} {ext[v]} {float(w)!r}" for u, v, w in net.edges]) + "\n"


def _take(items: list, at: np.ndarray) -> list:
    return list(map(items.__getitem__, at.tolist()))


def _tokenize(text: str) -> tuple:
    """Lines and whitespace tokens of a text, and where each line's tokens sit.

    Returns (lines, tokens, rows, starts, counts, comment): text.splitlines()
    and text.split(), then for each line that holds a token its index in
    lines, the index of its first token in tokens, its token count, and
    whether it is a comment (its first token starts with '%' or '#').
    Every line break of splitlines is whitespace to split, so a line's
    tokens sit in tokens one after another.
    """
    lines, tokens = text.splitlines(), text.split()
    counts = np.fromiter(map(len, map(str.split, lines)), np.int64, len(lines))
    rows = np.flatnonzero(counts)
    starts = (np.cumsum(counts) - counts)[rows]
    comment = np.fromiter(
        map(str.startswith, _take(tokens, starts), repeat(("%", "#"))), bool, len(rows)
    )
    return lines, tokens, rows, starts, counts[rows], comment


def _floats(tokens: list[str]) -> np.ndarray:
    """float() of each token, up to the first one that float() refuses."""
    try:
        return np.fromiter(map(float, tokens), np.float64, len(tokens))
    except ValueError:
        pass
    for i, tok in enumerate(tokens):
        try:
            float(tok)
        except ValueError:
            return np.fromiter(map(float, tokens[:i]), np.float64, i)


def _coord_line_error(lineno: int, line: str, repeated: bool) -> ValueError:
    """The error of a bad coordinate line, as the line-by-line reading words it."""
    parts = line.split()
    if len(parts) != 3:
        return ValueError(f"line {lineno}: expected 'id x y', got {line!r}")
    if repeated:
        return ValueError(f"line {lineno}: second coordinate line for id {parts[0]!r}")
    try:
        float(parts[1]), float(parts[2])
    except ValueError:
        return ValueError(f"line {lineno}: malformed coordinates {line!r}")
    return ValueError(f"line {lineno}: coordinates must be finite, got {line!r}")


def parse_coords(text: str, net: RoadNetwork) -> np.ndarray:
    """Parse `id x y` lines into an (n, 2) array aligned with internal ids.

    Lines for ids not in the network are ignored; every network vertex
    must receive a coordinate pair. The first bad line raises, with its
    number; the rows are placed with one gather.
    """
    lines, tokens, rows, starts, counts, comment = _tokenize(text)
    rows, starts, counts = rows[~comment], starts[~comment], counts[~comment]
    index = net._ext_index
    at = np.fromiter(map(index.get, _take(tokens, starts), repeat(-1)), np.int64, len(rows))
    bad = counts != 3
    known = np.flatnonzero(~bad & (at >= 0))
    first_line = np.full(net.vertex_count, len(rows))  # of each known id
    np.minimum.at(first_line, at[known], known)
    repeated = np.zeros(len(rows), dtype=bool)
    repeated[known] = first_line[at[known]] != known
    bad |= repeated
    fresh = known[~repeated[known]]
    x = _floats(_take(tokens, starts[fresh] + 1))
    y = _floats(_take(tokens, starts[fresh] + 2))
    read = min(len(x), len(y))
    bad[fresh[:read]] |= ~(np.isfinite(x[:read]) & np.isfinite(y[:read]))
    bad[fresh[read : read + 1]] = True  # the first line float() refused
    if bad.any():
        i = int(np.argmax(bad))
        raise _coord_line_error(int(rows[i]) + 1, lines[rows[i]].strip(), bool(repeated[i]))
    line_of = np.full(net.vertex_count, -1)
    line_of[at[fresh]] = np.arange(len(fresh))
    missing = np.flatnonzero(line_of < 0)
    if missing.size:
        first = net.external_ids[int(missing[0])]
        raise ValueError(
            f"{missing.size} vertices have no coordinates (first missing id: {first})"
        )
    return np.column_stack((x, y))[line_of]


def format_coords(net: RoadNetwork) -> str:
    """Serialize to `id x y` lines; an id that would not read back raises."""
    if net.coords is None:
        raise ValueError("network has no coordinates")
    _check_written_ids(net)
    x, y = net.coords.T.tolist()
    return "\n".join([f"{i} {a!r} {b!r}" for i, a, b in zip(net.external_ids, x, y)]) + "\n"


def _resolve_ids(net: RoadNetwork, rows, unique: bool = False) -> tuple[tuple[int, ...], ...]:
    """Internal ids of written external ids, one tuple per (place, ids) row.
    Errors start with the place (a query key) and name the id as written.
    With unique, no id repeats over all rows (20 and "20" are one)."""
    seen: set[str] = set()  # with unique: the ids so far
    out = []
    for place, ids in rows:
        out.append([])
        for tok in map(str, ids):
            if tok in seen:
                raise ValueError(f"{place} lists vertex {tok!r} more than once")
            if unique:
                seen.add(tok)
            try:
                out[-1].append(net.internal_id(tok))
            except KeyError:
                raise ValueError(f"{place}: unknown vertex id {tok!r}") from None
    return tuple(map(tuple, out))


def component_labels(net: RoadNetwork) -> tuple[np.ndarray, int]:
    """Label connected components; labels follow smallest-contained-id order.

    Computed once per network and stored on it; the labels are read-only.
    """
    if net._components is None:
        count, labels = connected_components(net.csgraph, directed=False)
        labels = labels.astype(np.int64)
        labels.setflags(write=False)
        net._components = (labels, int(count))
    return net._components


def is_connected(net: RoadNetwork) -> bool:
    return net.vertex_count > 0 and component_labels(net)[1] == 1


def largest_connected_component(net: RoadNetwork) -> RoadNetwork:
    """Induced subgraph on the largest component, ids re-densified.

    The kept edges go through `_densify` with their old ids as labels, the
    same pass the parser uses, so new ids follow first appearance in the
    edge sequence. An edgeless largest component is its single vertex.
    Ties go to the component containing the smallest original vertex id
    (the first one discovered by the scan). Already-connected networks
    are returned unchanged.
    """
    if net.vertex_count == 0:
        raise ValueError("empty network")
    labels, count = component_labels(net)
    if count == 1:
        return net
    sizes = np.bincount(labels, minlength=count)
    best = int(np.argmax(sizes))  # argmax keeps the first (smallest-id) winner on ties
    keep = labels == best
    # an edge's endpoints share a component, so testing u picks the kept edges
    old, edges = _densify((u, v, w) for u, v, w in net.edges if keep[u])
    if not old:
        old = [int(np.flatnonzero(keep)[0])]
    return RoadNetwork(
        vertex_count=len(old),
        edges=edges,
        external_ids=tuple(net.external_ids[i] for i in old),
        coords=net.coords[old] if net.coords is not None else None,
    )


def assign_categories(
    net: RoadNetwork, k: int, per_category: int, seed: int
) -> CategoryAssignment:
    """Sample k disjoint categories of per_category vertices each.

    Deterministic for a fixed seed: k * per_category distinct vertices are
    drawn uniformly without replacement and split into k equal blocks.
    """
    if k < 1 or per_category < 1:
        raise ValueError("k and per_category must be positive")
    total = k * per_category
    if total > net.vertex_count:
        raise ValueError(
            f"insufficient vertices: need {total}, network has {net.vertex_count}"
        )
    rng = np.random.default_rng(seed)
    chosen = rng.choice(net.vertex_count, size=total, replace=False)
    cats = tuple(
        tuple(int(v) for v in chosen[i * per_category : (i + 1) * per_category])
        for i in range(k)
    )
    return CategoryAssignment(cats)
