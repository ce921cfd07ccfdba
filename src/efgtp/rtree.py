"""Euclidean nearest-neighbor and group-nearest-neighbor picks by linear scan.

`bulk_load` checks (vertex-id, x, y) entries and returns them as a list
sorted by id; `euclidean_nn` scans that list once, `euclidean_gnn` once
per query point. A point's distance to (qx, qy) is `math.hypot(x - qx,
y - qy)`, a group distance is the sum of those over the query points,
added left to right from 0.0, and ties resolve to the smallest vertex id,
matching the network-distance picks so the two modes are comparable.

The three names stay separate calls, rather than inline code in the
heuristic, because the traced benchmark (`bench/spans.py`) times the
indexed picks by wrapping `heuristic.bulk_load` and these two functions.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

Entry = tuple[int, float, float]


def bulk_load(entries: Iterable[tuple[int, float, float]]) -> list[Entry]:
    """The (vertex-id, x, y) entries as floats, sorted by id."""
    items = sorted((int(v), float(x), float(y)) for v, x, y in entries)
    if not items:
        raise ValueError("cannot build an index over zero entries")
    if len({v for v, _, _ in items}) != len(items):
        raise ValueError("duplicate vertex ids in index entries")
    return items


def euclidean_nn(index: Sequence[Entry], qx: float, qy: float) -> int:
    """Id of the indexed point nearest to (qx, qy); ties -> smallest id."""
    qx, qy = float(qx), float(qy)
    # min keeps the first of equal keys, and the index is sorted by id
    return min(index, key=lambda e: math.hypot(e[1] - qx, e[2] - qy))[0]


def euclidean_gnn(index: Sequence[Entry], points: Sequence[tuple[float, float]]) -> int:
    """Id minimizing the summed Euclidean distance to all query points;
    ties -> smallest id."""
    pts = [(float(x), float(y)) for x, y in points]
    if not pts:
        raise ValueError("group query needs at least one point")
    # each score adds the points' distances left to right from 0.0, not by builtin sum
    scores = [0.0] * len(index)
    for x, y in pts:
        scores = [d + math.hypot(e[1] - x, e[2] - y) for d, e in zip(scores, index)]
    return index[min(range(len(index)), key=scores.__getitem__)][0]
