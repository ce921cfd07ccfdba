"""The whole-array coordinate reader and the loader against the
line-by-line reading in support.py.

Generated coordinate texts, and edge-list texts read with them, must
give equal networks, or a ValueError with the same text, line number
included. The texts mix comments ('%', '#', indented), blank and
whitespace-only lines, every line break str.splitlines honours, tabs,
no-break and other Unicode spaces, MatrixMarket banners with comments
before their size line, two-token self-loops, parallel edges with equal
and smaller weights, weight tokens float() accepts ('1_0', '+1.5',
'1e3', 'inf', 'nan', '-0.0', Arabic-Indic digits) and tokens it refuses,
and coordinate lines for ids the network does not have. The edge checks
of RoadNetwork are held to the one-edge-at-a-time checks the same way.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from efgtp import RoadNetwork, load_network, parse_coords  # noqa: E402

from support import (  # noqa: E402
    reference_edge_error,
    reference_load_network,
    reference_parse_coords,
)

IDS = ("a", "b", "c", "d", "10", "010", "a#b", "\xe9", "%x")
GOOD_WEIGHTS = ("1", "2.5", "1_0", "+1.5", "1e3", "0.25", "3", "\u0661")  # Arabic-Indic 1
BAD_WEIGHTS = ("inf", "nan", "-0.0", "0", "-1", "abc", "1__0", "0x10", "1e400", "_1")
BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
SPACES = (" ", "\t", "\xa0", "  ", "\x1f", "\u3000")
COMMENTS = (
    "% note",
    "# note",
    "  % indented",
    "\t#tab",
    "%%MatrixMarket matrix coordinate real general",
    "%%matrixmarket",
    "  %%MatrixMarket indented",
)
BLANKS = ("", "   ", "\t", "\xa0", "\u2000")

ids = st.sampled_from(IDS)
spaces = st.sampled_from(SPACES)
weights = st.one_of(*[st.sampled_from(GOOD_WEIGHTS)] * 4, st.sampled_from(BAD_WEIGHTS))
edge_line = st.builds(
    lambda lead, x, s1, y, s2, w, trail: f"{lead}{x}{s1}{y}{s2}{w}{trail}",
    st.sampled_from(("", " ", "\t")), ids, spaces, ids, spaces, weights, st.sampled_from(("", " ")),
)
clean_edge_line = st.builds(
    lambda xy, s, w: f"{xy[0]}{s}{xy[1]} {w}",
    st.lists(ids, min_size=2, max_size=2, unique=True), spaces, st.sampled_from(GOOD_WEIGHTS),
)
harmless_line = st.one_of(  # lines that add no edge and raise nothing
    st.sampled_from(COMMENTS),
    st.sampled_from(BLANKS),
    st.sampled_from(("3 3 2", "a\xa0a", "b\tb")),  # size lines and two-token self-loops
)
bad_line = st.one_of(
    st.builds(lambda x, y: f"{x} {y}", ids, ids),  # a missing weight, or a self-loop
    st.sampled_from(("a", "a b 1 2")),
)
edge_lines = st.one_of(
    st.lists(st.one_of(*[clean_edge_line] * 4, harmless_line), min_size=2, max_size=14),
    st.lists(st.one_of(*[edge_line] * 6, harmless_line, bad_line), max_size=14),
)


@st.composite
def texts(draw, lines):
    """Lines, each ended by a drawn line break; the last character may be cut
    off, which drops the final break or leaves half of a final CRLF."""
    body = draw(lines)
    breaks = draw(st.lists(st.sampled_from(BREAKS), min_size=len(body), max_size=len(body)))
    text = "".join(line + br for line, br in zip(body, breaks))
    return text if draw(st.booleans()) else text[:-1]


NETWORK_IDS = tuple(i for i in IDS if not i.startswith("%"))  # '%x' starts a comment
NETWORK = RoadNetwork(
    len(NETWORK_IDS), tuple((i, i + 1, 1.0) for i in range(len(NETWORK_IDS) - 1)), NETWORK_IDS
)
network_ids = st.sampled_from(NETWORK_IDS)
number = st.sampled_from(("0", "1.5", "-2", "1e3", "1_0", "+0.25", "\u0661"))
bad_number = st.sampled_from(("nan", "inf", "-inf", "x", "1__0"))


@st.composite
def coord_lines(draw):
    """A line for most ids, in any order, among noise: unknown ids, repeats,
    comments, blanks, malformed lines and bad numbers."""
    wanted = draw(st.lists(network_ids, unique=True, min_size=len(NETWORK_IDS) - 1))
    lines = [f"{i}{draw(spaces)}{draw(number)}{draw(spaces)}{draw(number)}" for i in wanted]
    noise = st.one_of(
        st.builds(lambda x, y: f"ghost {x} {y}", number, bad_number),
        st.builds(lambda i, x, y: f"{i} {x} {y}", ids, number, number),  # maybe a repeat
        st.builds(lambda i, x: f"  {i} {x} 1 ", ids, bad_number),
        st.sampled_from(COMMENTS),
        st.sampled_from(BLANKS),
        st.sampled_from(("a 1", "b 1 2 3", "ghost")),
    )
    lines += draw(st.lists(noise, max_size=2))
    return draw(st.permutations(lines))


def outcome(read, *args):
    """("ok", result) or ("error", message); arrays compare by shape, dtype and bits."""
    try:
        out = read(*args)
    except ValueError as exc:
        return "error", str(exc)
    if isinstance(out, np.ndarray):
        return "ok", out.shape, out.dtype, out.tobytes()
    return "ok", out


@given(texts(coord_lines()))
@example("a 1 2\nghost nan x\nb 1 2\na 3 4\n")
def test_parse_coords_matches_line_by_line(text):
    assert outcome(parse_coords, text, NETWORK) == outcome(reference_parse_coords, text, NETWORK)


@given(texts(edge_lines), st.one_of(st.none(), texts(coord_lines())))
def test_load_network_matches_line_by_line(edge_text, coord_text):
    with tempfile.TemporaryDirectory() as tmp:
        graph, coords = Path(tmp) / "graph.txt", Path(tmp) / "coords.txt"
        graph.write_text(edge_text)
        if coord_text is not None:
            coords.write_text(coord_text)
        read = (str(graph),) if coord_text is None else (str(graph), str(coords))
        assert outcome(load_network, *read) == outcome(reference_load_network, *read)


edges = st.lists(
    st.tuples(
        st.integers(-1, 4),
        st.integers(-1, 4),
        st.sampled_from((1.0, 2.5, 0.0, -1.0, math.inf, math.nan)),
    ),
    max_size=6,
)


@given(st.integers(0, 4), edges)
def test_edge_checks_match_one_at_a_time(n, edge_list):
    expected = reference_edge_error(n, edge_list)
    got = outcome(RoadNetwork, n, tuple(edge_list), tuple(map(str, range(n))))
    assert got[0] == ("ok" if expected is None else "error")
    if expected is not None:
        assert got[1] == expected
