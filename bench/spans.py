"""In-memory span tracer that wraps the library's public functions.

The benchmark installs the wrappers from its own code; no file of the
library changes. Each call of a wrapped function records one span
(name, start, end, parent, phase, note), where the parent is the wrapped
call it ran inside. A span's self time is its duration minus the
durations of its direct children. Per-layer metrics are derived from the
spans when the run ends.
"""

from __future__ import annotations

import functools
import time
import weakref
from collections import defaultdict

NAME, START, END, PARENT, PHASE, NOTE = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._rows_seen: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def wrap(self, owner, attr: str, name: str, pre=None, post=None) -> None:
        """Replace owner.attr by a recording wrapper.

        pre(args, kwargs) and post(args, kwargs, result) return the span's
        note; pre runs before the call, post after it.
        """
        orig = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.phase, None]
            if pre is not None:
                span[NOTE] = pre(args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if post is not None:
                span[NOTE] = post(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def install(self, mods) -> None:
        """Wrap the public entry points of every library module.

        Functions are wrapped in each namespace that calls them, since a
        module that imported a name keeps its own reference.
        """
        syn, net, ora, ex, heu, rt, exp = (
            mods.synthetic, mods.network, mods.oracle, mods.exact,
            mods.heuristic, mods.rtree, mods.experiments,
        )
        full = ora.FULL
        self.wrap(syn, "europe_like", "synthetic.preset")
        self.wrap(syn, "minnesota_like", "synthetic.preset")
        self.wrap(exp, "load_network", "network.load")
        for owner in (net, ora, exp):
            self.wrap(owner, "is_connected", "network.is_connected")
        self.wrap(
            ora, "build_oracle", "oracle.build",
            post=lambda a, kw, r: r.vertex_count if r.mode == full else 0,
        )
        self.wrap(ora.DistanceOracle, "row", "oracle.row", pre=self._row_is_cold)
        self.wrap(
            ex, "solve_exact", "exact.solve",
            post=lambda a, kw, r: (r.feasible_count, _cells(a[0]), _over(a[0], r)),
        )
        self.wrap(ex, "min_additional_distance", "exact.mad", pre=lambda a, kw: _cells(a[0]))
        for owner in (ex, heu):
            self.wrap(owner, "evaluate_route", "exact.evaluate_route")
        self.wrap(exp, "threshold_quantiles", "experiments.threshold_quantiles")
        self.wrap(
            heu, "solve_heuristic", "heuristic.solve",
            pre=lambda a, kw: kw.get("index", a[2] if len(a) > 2 else None),
        )
        self.wrap(heu, "group_nearest_neighbor", "heuristic.gnn")
        self.wrap(heu, "nearest_neighbor", "heuristic.nn")
        self.wrap(heu, "bulk_load", "rtree.bulk_load", pre=lambda a, kw: len(a[0]))
        self.wrap(rt, "euclidean_nn", "rtree.query")
        self.wrap(rt, "euclidean_gnn", "rtree.query")
        self._on_demand = ora.ON_DEMAND

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _row_is_cold(self, args, kwargs) -> bool:
        oracle, s = args[0], int(args[1])
        seen = self._rows_seen.setdefault(oracle, set())
        cold = oracle.mode == self._on_demand and s not in seen
        seen.add(s)
        return cold


def _cells(query) -> int:
    cats = query.categories.categories
    return len(cats[0]) * len(cats[-1])


def _over(query, outcome) -> bool:
    r = outcome.optimal
    return r is not None and r.max_gap > query.envy_threshold


def per_layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of one traced run.

    Times are per call over every span of the run (setup, input
    preparation, warm-up and timed rounds); counts are per timed round.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def self_t(i):
        return dur(i) - child[i]

    def mean_ms(name, f=dur, keep=lambda i: True):
        idx = [i for i in by_name[name] if keep(i)]
        return 1e3 * sum(f(i) for i in idx) / len(idx) if idx else float("nan")

    def timed(name, keep=lambda i: True):
        return [i for i in by_name[name] if spans[i][PHASE] == "timed" and keep(i)]

    def per_round(x):
        return x / rounds

    note = lambda i: spans[i][NOTE]  # noqa: E731
    rows = by_name["oracle.row"]
    timed_rows = timed("oracle.row")
    cold_timed = [i for i in timed_rows if note(i)]
    cold = [i for i in rows if note(i)]
    builds_full = [i for i in by_name["oracle.build"] if note(i)]
    solves = by_name["exact.solve"]
    mads = by_name["exact.mad"]
    bulk = by_name["rtree.bulk_load"]
    plain = lambda i: note(i) is None  # noqa: E731
    indexed = lambda i: note(i) is not None  # noqa: E731

    dijkstra_rows = len(cold) + sum(note(i) for i in builds_full)
    dijkstra_s = sum(dur(i) for i in cold) + sum(self_t(i) for i in builds_full)
    feasible = sum(note(i)[0] for i in solves)
    cells = sum(note(i)[1] for i in solves) + sum(note(i) for i in mads)
    points = sum(note(i) for i in bulk)

    return {
        "synthetic.preset_ms": (mean_ms("synthetic.preset"), "ms"),
        "network.load_ms": (mean_ms("network.load", self_t), "ms"),
        "network.is_connected_calls": (per_round(len(timed("network.is_connected"))), "count"),
        "network.is_connected_ms": (mean_ms("network.is_connected"), "ms"),
        "oracle.build_ms": (mean_ms("oracle.build", self_t), "ms"),
        "oracle.row_calls": (per_round(len(timed_rows)), "count"),
        "oracle.row_cold": (per_round(len(cold_timed)), "count"),
        "oracle.row_hit_ratio": (
            (len(timed_rows) - len(cold_timed)) / len(timed_rows) if timed_rows else float("nan"),
            "ratio",
        ),
        "oracle.row_cold_ms": (
            1e3 * dijkstra_s / dijkstra_rows if dijkstra_rows else float("nan"), "ms",
        ),
        "exact.solve_self_ms": (mean_ms("exact.solve", self_t), "ms"),
        "exact.us_per_feasible_combination": (
            1e6 * sum(self_t(i) for i in solves) / feasible if feasible else float("nan"), "us",
        ),
        "exact.pair_table_cells": (
            per_round(
                sum(note(i)[1] for i in timed("exact.solve"))
                + sum(note(i) for i in timed("exact.mad"))
            ),
            "count",
        ),
        "exact.us_per_pair": (
            1e6 * sum(self_t(i) for i in solves + mads) / cells if cells else float("nan"), "us",
        ),
        "exact.mad_self_ms": (mean_ms("exact.mad", self_t), "ms"),
        "experiments.threshold_quantiles_ms": (
            mean_ms("experiments.threshold_quantiles", self_t), "ms",
        ),
        "exact.evaluate_route_ms": (mean_ms("exact.evaluate_route", self_t), "ms"),
        "exact.optimal_over_threshold": (
            per_round(len(timed("exact.solve", lambda i: note(i)[2]))), "count",
        ),
        "heuristic.solve_self_ms": (mean_ms("heuristic.solve", self_t, plain), "ms"),
        "heuristic.gnn_ms": (mean_ms("heuristic.gnn", self_t), "ms"),
        "heuristic.nn_ms": (mean_ms("heuristic.nn", self_t), "ms"),
        "heuristic.indexed_self_ms": (mean_ms("heuristic.solve", self_t, indexed), "ms"),
        "rtree.bulk_load_ms": (mean_ms("rtree.bulk_load"), "ms"),
        "rtree.points_indexed": (per_round(sum(note(i) for i in timed("rtree.bulk_load"))), "count"),
        "rtree.us_per_indexed_point": (
            1e6 * sum(dur(i) for i in bulk) / points if points else float("nan"), "us",
        ),
        "rtree.query_ms": (mean_ms("rtree.query"), "ms"),
    }
