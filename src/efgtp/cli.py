"""Command-line front end: solve single queries, run sweeps and benches.

Exit codes: 0 on success (an infeasible instance is still a successful
solve and prints its minimum-slack line), 1 on command-line misuse, 2 on
input/output problems, 3 when a capacity guard trips.
"""

from __future__ import annotations

import argparse
import logging
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Optional, Sequence

from .exact import load_query, solve_exact
from .experiments import (
    SweepConfig,
    bench_to_csv,
    compare_solvers,
    load_network,
    records_to_csv,
    run_sweep,
)
from .heuristic import INDEX_MODES, solve_heuristic
from .oracle import CapacityError, build_oracle


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this front end reserves 2 for I/O."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="efgtp", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", metavar="command")

    solve = argparse.ArgumentParser(add_help=False)  # the inputs of one query
    solve.add_argument("--graph", required=True, help="edge-list file")
    solve.add_argument("--coords", help="vertex coordinates file")
    solve.add_argument("--query", required=True, help="query JSON file")

    pe = sub.add_parser("solve-exact", parents=[solve], help="exhaustive solve of one query file")
    pe.add_argument("--faithful", action="store_true", help="literal full enumeration")
    pe.add_argument("--debug-matrix", help="write per-combination CSV here")
    pe.set_defaults(func=_cmd_solve_exact)

    ph = sub.add_parser(
        "solve-heuristic", parents=[solve], help="greedy GNN/NN solve of one query file"
    )
    modes = [mode for mode in INDEX_MODES if mode is not None]  # None: the oracle picks
    ph.add_argument(
        "--index", choices=modes, help="pick POIs by Euclidean distance instead of the oracle"
    )
    ph.set_defaults(func=_cmd_solve_heuristic)

    for name, help_text, run, to_csv in (
        ("sweep", "threshold sweep over seeded instances", run_sweep, records_to_csv),
        ("bench", "exact-vs-heuristic comparison table", compare_solvers, bench_to_csv),
    ):
        pg = sub.add_parser(name, help=help_text)
        pg.add_argument("--config", required=True, help="sweep config JSON file")
        pg.add_argument("--out", required=True, help="output CSV path")
        pg.set_defaults(func=_cmd_grid, run=run, to_csv=to_csv)
    return parser


def _load(args):
    """The network, query and on-demand oracle a solve command reads."""
    net = load_network(args.graph, args.coords)
    query = load_query(Path(args.query).read_text(), net)
    return net, query, build_oracle(net)


def _cmd_solve_exact(args) -> int:
    net, query, oracle = _load(args)
    if args.debug_matrix:
        # through a temporary file, so a refused or failed solve leaves OUT as it was
        with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as fh:
            out = solve_exact(query, oracle, faithful=args.faithful, debug_matrix=fh)
            fh.seek(0)
            with open(args.debug_matrix, "w", encoding="utf-8", newline="") as dst:
                shutil.copyfileobj(fh, dst)
    else:
        out = solve_exact(query, oracle, faithful=args.faithful)
    ext = net.external_ids
    if out.feasible:
        r = out.optimal
        combo = ",".join(ext[v] for v in r.combination)
        print(
            f"OPTIMAL combination={combo} aggregated={r.aggregated!r} "
            f"max_gap={r.max_gap!r} feasible_count={out.feasible_count}"
        )
        print("per_member=" + ",".join(repr(x) for x in r.per_member))
    else:
        print(f"INFEASIBLE d={out.min_gap!r} epsilon={out.epsilon!r}")
        print("witness=" + ",".join(ext[v] for v in out.min_gap_witness))
    return 0


def _cmd_solve_heuristic(args) -> int:
    net, query, oracle = _load(args)
    res = solve_heuristic(query, oracle, index=args.index)
    r = res.route
    combo = ",".join(net.external_ids[v] for v in r.combination)
    print(
        f"HEURISTIC combination={combo} aggregated={r.aggregated!r} "
        f"max_gap={r.max_gap!r} feasible={int(r.feasible)} "
        f"gnn_queries={res.gnn_queries} nn_queries={res.nn_queries}"
    )
    print("per_member=" + ",".join(repr(x) for x in r.per_member))
    return 0


def _cmd_grid(args) -> int:
    """sweep and bench: run the config's grid, write its CSV."""
    config = SweepConfig.from_json(Path(args.config).read_text())
    records = args.run(config)
    Path(args.out).write_text(args.to_csv(records), encoding="utf-8")
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        sys.stderr.write("error: a command is required\n")
        return 1
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
