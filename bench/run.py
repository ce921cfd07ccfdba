#!/usr/bin/env python3
"""Reference-checked benchmark of the efgtp library.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep-europe --seed 1 --seconds 10 --trace 0

One thread, one closed-loop client calling the library's public API. A
run checks the checker (selftest.py), sets the workload up repeatedly
(timed: setup_s), builds its inputs from --seed and runs one untimed
warm-up round. A forked child then runs whole timed rounds until
--seconds have passed, so that its peak resident size covers the timed
phase alone, and sets the workload up again. Afterwards every answer is
checked against an independent reference (reference.py). The last line
of standard output is one JSON object: end-to-end metrics with --trace 0,
per-layer metrics (spans.py) with --trace 1. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
import types
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import numpy as np

import reference as R
from selftest import run_self_test
from spans import Tracer, per_layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
SETUP_SECONDS, SETUP_MIN = 1.5, 2  # per batch: set up until both are reached
SOLVER_KINDS = ("exact", "mad", "resolve", "heuristic", "heuristic_indexed")


def load_library():
    """The efgtp modules from this checkout's src/ (never an installed copy)."""
    if not (SRC / "efgtp" / "__init__.py").is_file():
        raise FileNotFoundError(f"library sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    from efgtp import exact, experiments, heuristic, network, oracle, rtree, synthetic

    return types.SimpleNamespace(
        exact=exact, experiments=experiments, heuristic=heuristic, network=network,
        oracle=oracle, rtree=rtree, synthetic=synthetic,
    )


@dataclass
class Record:
    kind: str
    ms: float
    query: int
    D: Any
    result: Any
    context: Any = None
    error: Optional[str] = None


class Recorder:
    """Times each operation of a round and keeps its answer for checking."""

    def __init__(self):
        self.records: list[Record] = []

    def op(self, kind, query, D, fn, context=None):
        result, error = None, None
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            error = repr(exc)
        ms = (time.perf_counter() - start) * 1e3
        self.records.append(Record(kind, ms, query, D, result, context, error))
        return result


def load_preset(mods, preset, workdir: Path):
    """Write a preset network as edge-list and coordinate text, then load it."""
    net = preset()
    graph, coords = workdir / "graph.txt", workdir / "coords.txt"
    graph.write_text(mods.network.format_edge_list(net))
    coords.write_text(mods.network.format_coords(net))
    return mods.experiments.load_network(str(graph), str(coords))


def member_pair_gaps(ref: R.RefGraph, query) -> np.ndarray:
    """Reference gaps of every (first, last) pair, from member rows only."""
    cats = query.categories.categories
    s = ref.rows(query.group.sources)[:, list(cats[0])].T
    t = ref.rows(query.group.destinations)[:, list(cats[-1])].T
    return R.pair_gaps(s, t)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    quantile_checks = (0.0, 0.005, 0.5)

    def __init__(self, mods):
        self.mods = mods
        self.queries: list = []
        self.prep_records: list[Record] = []

    def sample_query(self, net, k, per_category, b, D, rng):
        seed = int(rng.integers(1, 2**31 - 2))
        cats = self.mods.network.assign_categories(net, k, per_category, seed=seed)
        return self.mods.experiments.generate_query(net, b, cats, D=D, seed=seed + 1)

    def check_program_quantiles(self, oracle, queries) -> None:
        """Call threshold_quantiles on each query; the answers are checked later."""
        tq = self.mods.experiments.threshold_quantiles
        for qi, query in queries:
            ths = tq(query, oracle, self.quantile_checks)
            self.prep_records.append(Record("quantiles", 0.0, qi, self.quantile_checks, ths))

    def ratio_base(self, legs, rec: Record, records_by_key) -> Optional[float]:
        """Optimum a heuristic aggregate is divided by, or None (no cell).

        By default the optimum with no envy bound (D = inf), where every
        route is feasible: the exact solver is not run at a loose threshold.
        """
        return R.layered_optimum(legs)


class SweepEurope(Workload):
    """Per instance: a gap-quantile threshold grid plus one infeasible point."""

    name = "sweep-europe"
    quantiles = (0.0, 0.25, 0.5, 0.75, 1.0)
    shape = ((3, 16), (4, 24), (5, 2))  # (k, instances)
    per_category, b, tight = 10, 4, 0.75

    def setup(self, workdir):
        net = load_preset(self.mods, self.mods.synthetic.europe_like, workdir)
        return net, self.mods.oracle.build_oracle(net)

    def prepare(self, state, rng):
        net, _ = state
        for k, count in self.shape:
            for _ in range(count):
                self.queries.append(self.sample_query(net, k, self.per_category, self.b, 0.0, rng))

    def round(self, state, rec: Recorder):
        _, oracle = state
        ex, heu, exp = self.mods.exact, self.mods.heuristic, self.mods.experiments
        qs = self.quantiles
        for qi, query in enumerate(self.queries):
            ths = rec.op("quantiles", qi, qs, lambda: exp.threshold_quantiles(query, oracle, qs))
            if ths is None:
                continue
            for D in (self.tight * ths[0], *ths):
                q = query.with_threshold(D)
                out = rec.op("exact", qi, D, lambda: ex.solve_exact(q, oracle))
                if out is not None and not out.feasible:
                    mad = rec.op("mad", qi, D, lambda: ex.min_additional_distance(q, oracle), out)
                    if mad is not None:
                        q2 = query.with_threshold(D + mad[1])
                        rec.op("resolve", qi, q2.envy_threshold, lambda: ex.solve_exact(q2, oracle))
                rec.op("heuristic", qi, D, lambda: heu.solve_heuristic(q, oracle, index=None))
                rec.op(
                    "heuristic_indexed", qi, D,
                    lambda: heu.solve_heuristic(q, oracle, index="euclidean"),
                )

    def ratio_base(self, legs, rec, records_by_key):
        """The exact optimum at the same threshold, when both are feasible."""
        exact = records_by_key.get(("exact", rec.query, rec.D))
        if not rec.result.route.feasible or exact is None or exact.result is None:
            return None
        return None if exact.result.optimal is None else exact.result.optimal.aggregated


class ColdTightMinnesota(Workload):
    """Independent cold queries at tight thresholds, served as the CLI serves them."""

    name = "cold-tight-minnesota"
    # (k, POIs per category, threshold rule, fraction): "below" puts D at that
    # fraction of the reference minimum gap (infeasible); "quantile" at that
    # reference gap quantile (feasible, few combinations).
    slots = tuple(
        (k, n, rule, frac)
        for k in (2, 3)
        for n, (below, quant) in zip((60, 100, 150), ((0.6, 0.001), (0.75, 0.003), (0.9, 0.005)))
        for rule, frac in (("below", below), ("quantile", quant))
    )
    b = 4

    def setup(self, workdir):
        return load_preset(self.mods, self.mods.synthetic.minnesota_like, workdir), None

    def prepare(self, state, rng):
        net, _ = state
        ref = R.RefGraph(net)
        for k, n, rule, frac in self.slots:
            query = self.sample_query(net, k, n, self.b, 0.0, rng)
            gaps = member_pair_gaps(ref, query)
            D = frac * float(gaps.min()) if rule == "below" else float(np.quantile(gaps, frac))
            self.queries.append(query.with_threshold(D))
        self.check_program_quantiles(self.mods.oracle.build_oracle(net), enumerate(self.queries))

    def round(self, state, rec: Recorder):
        net, _ = state
        ex, heu, ora = self.mods.exact, self.mods.heuristic, self.mods.oracle
        for qi, query in enumerate(self.queries):
            D = query.envy_threshold
            held = []

            def cold_exact():
                held.append(ora.build_oracle(net))
                return ex.solve_exact(query, held[0])

            out = rec.op("exact", qi, D, cold_exact)
            if out is not None and not out.feasible:
                mad = rec.op("mad", qi, D, lambda: ex.min_additional_distance(query, held[0]), out)
                if mad is not None:
                    q2 = query.with_threshold(D + mad[1])
                    rec.op("resolve", qi, q2.envy_threshold, lambda: ex.solve_exact(q2, held[0]))
            held.clear()
            rec.op(
                "heuristic", qi, D,
                lambda: heu.solve_heuristic(query, ora.build_oracle(net), index=None),
            )
            rec.op(
                "heuristic_indexed", qi, D,
                lambda: heu.solve_heuristic(query, ora.build_oracle(net), index="euclidean"),
            )


class HeuristicMinnesota(Workload):
    """A stream of greedy solves on large categories over a full-matrix oracle."""

    name = "heuristic-minnesota"
    sizes = (200, 250, 300, 350, 400)
    count, k, b, tight = 40, 6, 8, 0.75

    def setup(self, workdir):
        net = load_preset(self.mods, self.mods.synthetic.minnesota_like, workdir)
        return net, self.mods.oracle.build_oracle(net, self.mods.oracle.FULL)

    def prepare(self, state, rng):
        net, oracle = state
        for i in range(self.count):
            n = self.sizes[i % len(self.sizes)]
            self.queries.append(self.sample_query(net, self.k, n, self.b, math.inf, rng))
        # The exact probe: the first query's members over its first and last
        # category, below the reference minimum gap (the k = 6 space is far
        # too large to enumerate).
        base = self.queries[0]
        cats = base.categories.categories
        probe = self.mods.exact.EfGtpQuery(
            group=base.group,
            categories=self.mods.network.CategoryAssignment((cats[0], cats[-1])),
            envy_threshold=0.0,
        )
        gaps = member_pair_gaps(R.RefGraph(net), probe)
        self.queries.append(probe.with_threshold(self.tight * float(gaps.min())))
        self.check_program_quantiles(oracle, [(len(self.queries) - 1, self.queries[-1])])

    def round(self, state, rec: Recorder):
        _, oracle = state
        ex, heu = self.mods.exact, self.mods.heuristic
        *stream, probe = self.queries
        for qi, query in enumerate(stream):
            rec.op("heuristic", qi, math.inf, lambda: heu.solve_heuristic(query, oracle, index=None))
            rec.op(
                "heuristic_indexed", qi, math.inf,
                lambda: heu.solve_heuristic(query, oracle, index="euclidean"),
            )
        pi, D = len(stream), probe.envy_threshold
        out = rec.op("exact", pi, D, lambda: ex.solve_exact(probe, oracle))
        if out is not None and not out.feasible:
            mad = rec.op("mad", pi, D, lambda: ex.min_additional_distance(probe, oracle), out)
            if mad is not None:
                q2 = probe.with_threshold(D + mad[1])
                rec.op("resolve", pi, q2.envy_threshold, lambda: ex.solve_exact(q2, oracle))


WORKLOADS = {w.name: w for w in (SweepEurope, ColdTightMinnesota, HeuristicMinnesota)}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_records(work: Workload, net, records: list[Record]):
    """(problems, heuristic ratio, indexed ratio) over every recorded answer."""
    ref = R.RefGraph(net)
    by_query: dict[int, list[Record]] = {}
    for r in records:
        by_query.setdefault(r.query, []).append(r)
    by_key = {(r.kind, r.query, r.D): r for r in records}
    problems: list[str] = []
    ratios: dict[str, dict] = {"heuristic": {}, "heuristic_indexed": {}}
    for qi in sorted(by_query):
        legs = R.build_legs(ref, work.queries[qi])
        verdicts: dict[tuple, list[str]] = {}
        for r in by_query[qi]:
            if r.error is not None:
                continue  # counted as failed, not as wrong
            # Rounds repeat the same operations; an answer equal to one
            # already checked gets the same verdict.
            key = (r.kind, r.D, r.result, r.context)
            if key in verdicts:
                problems += verdicts[key]
                continue
            if r.kind in ("exact", "resolve"):
                found = R.check_exact(legs, r.D, r.result)
                if r.kind == "resolve" and r.result.optimal is None:
                    found.append("re-solve at D + epsilon is infeasible")
            elif r.kind == "mad":
                found = R.check_mad(legs, r.D, r.context, r.result)
            elif r.kind == "quantiles":
                found = R.check_quantiles(legs, r.D, r.result)
            else:
                found = R.check_heuristic(legs, r.D, r.result, r.kind == "heuristic_indexed")
                base = None if found else work.ratio_base(legs, r, by_key)
                if base is not None:
                    route = r.result.route
                    ratios[r.kind][(qi, r.D)] = route.aggregated / base
                    gap = R.route_values(legs, route.combination)[2]
                    if gap <= r.D - legs.delta and route.aggregated < base - legs.delta:
                        found.append(
                            f"feasible heuristic aggregate {route.aggregated!r} "
                            f"beats the optimum {base!r}"
                        )
            verdicts[key] = [f"{work.name} query {qi} {r.kind} D={r.D!r}: {p}" for p in found]
            problems += verdicts[key]
    ref.clear()

    def mean(d):
        return sum(d.values()) / len(d) if d else math.nan

    return problems, mean(ratios["heuristic"]), mean(ratios["heuristic_indexed"])


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def trimmed_mean(values) -> float:
    """Mean without the fastest and slowest tenth of the samples."""
    v = sorted(values)
    t = len(v) // 10
    return statistics.fmean(v[t : len(v) - t])


def median_ms(records, kind) -> float:
    """Median over distinct operations of each one's mean time across rounds.

    Every round repeats the same operations. Averaging each operation over
    the rounds first smooths the host's speed swings, which last several
    seconds; the trim drops single stalls such as a garbage collection.
    """
    per_op: dict[tuple, list[float]] = {}
    for r in records:
        if r.kind == kind and r.error is None:
            per_op.setdefault((r.query, r.D), []).append(r.ms)
    return statistics.median(trimmed_mean(v) for v in per_op.values()) if per_op else math.nan


def time_setups(work: Workload, workdir: Path, times: list[float]):
    """Set the workload up until a batch's time and count are reached."""
    state, spent, count = None, 0.0, 0
    while count < SETUP_MIN or spent < SETUP_SECONDS:
        state = None
        gc.collect()
        start = time.perf_counter()
        state = work.setup(workdir)
        times.append(time.perf_counter() - start)
        spent += times[-1]
        count += 1
    return state


def continue_in_child() -> None:
    """Fork; only the child returns. The parent exits with the child's code.

    A forked child's high-water resident size starts at its size at the
    fork, so ru_maxrss read in the child is the peak of what runs after.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        return
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    os._exit(code if code >= 0 else 1)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    mods = load_library()
    try:
        bad = run_self_test(mods)
    except Exception as exc:  # the library raised on the self-test instance
        bad = [repr(exc)]
    if bad:
        raise RuntimeError("self-test failed: " + "; ".join(bad))
    gc.collect()

    work = WORKLOADS[workload](mods)
    workdir = WORK / workload
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install(mods)
    try:
        # Set-ups run in two batches, before and after the timed rounds, so
        # that like every other timing they span the host's speed swings.
        setup_times: list[float] = []
        state = time_setups(work, workdir, setup_times)
        net = state[0]

        if tracer is not None:
            tracer.phase = "prep"
        work.prepare(state, np.random.default_rng(seed))

        if tracer is not None:
            tracer.phase = "warm"
        warm = Recorder()
        work.round(state, warm)
        gc.collect()

        continue_in_child()
        if tracer is not None:
            tracer.phase = "timed"
        rec = Recorder()
        rounds = 0
        start = time.perf_counter()
        while True:
            work.round(state, rec)
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                break
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        state = None
        if tracer is not None:
            tracer.phase = "setup"
        time_setups(work, workdir, setup_times)
    finally:
        if tracer is not None:
            tracer.uninstall()

    records = rec.records
    problems, ratio, ratio_indexed = check_records(
        work, net, work.prep_records + warm.records + records
    )
    solver_calls = sum(1 for r in records if r.kind in SOLVER_KINDS)
    failed = [r for r in records if r.error is not None]
    end_to_end = {
        "setup_s": (trimmed_mean(setup_times), "s"),
        "queries_per_s": (solver_calls / elapsed, "1/s"),
        "exact_ms_p50": (median_ms(records, "exact"), "ms"),
        "mad_ms_p50": (median_ms(records, "mad"), "ms"),
        "heuristic_ms_p50": (median_ms(records, "heuristic"), "ms"),
        "heuristic_indexed_ms_p50": (median_ms(records, "heuristic_indexed"), "ms"),
        "heuristic_agg_ratio": (ratio, "ratio"),
        "heuristic_indexed_agg_ratio": (ratio_indexed, "ratio"),
        "peak_rss_mb": (peak_kib / 2**10, "MB"),
    }
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    for r in failed[:5]:
        print(f"OPERATION FAILED: {r.kind} query {r.query} D={r.D!r}: {r.error}", file=sys.stderr)
    print(
        f"{workload} seed={seed} trace={int(trace)} rounds={rounds} elapsed={elapsed:.3f}s "
        f"attempted={len(records)} failed={len(failed)} problems={len(problems)} "
        + " ".join(f"{k}={v:.6g}" for k, (v, _) in end_to_end.items()),
        file=sys.stderr,
    )
    metrics = per_layer_metrics(tracer, rounds) if trace else end_to_end
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            raise RuntimeError(f"metric {name} was not measured ({value})")
    return {
        "correct": not problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (FileNotFoundError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
