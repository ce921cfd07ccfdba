"""Threshold sweeps: config validation, record semantics, CSV output."""

import csv
import dataclasses
import io
import json
import re

import numpy as np
import pytest

import efgtp.experiments
from efgtp import (
    CapacityError,
    SweepConfig,
    SweepRecord,
    assign_categories,
    build_oracle,
    europe_like,
    gap_distribution,
    generate_query,
    load_network,
    records_to_csv,
    run_sweep,
    threshold_quantiles,
)
from efgtp.experiments import SOLVERS

from support import random_network


def config(**overrides):
    base = dict(
        dataset="synthetic",
        k_values=(1, 2),
        per_category=3,
        b=2,
        seeds=(0, 1),
        solvers=("exact",),
        d_values=(0.0, 3.0, 1e9),
    )
    base.update(overrides)
    return SweepConfig(**base)


@pytest.fixture(scope="module")
def net25():
    return random_network(np.random.default_rng(500), 25)


class TestSweepConfig:
    def test_requires_exactly_one_grid(self):
        with pytest.raises(ValueError, match="exactly one"):
            config(d_values=(1.0,), d_quantiles=(0.5,))
        with pytest.raises(ValueError, match="exactly one"):
            config(d_values=None)

    def test_grid_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            config(d_values=(1.0, 1.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            config(d_values=())
        with pytest.raises(ValueError, match="strictly increasing"):
            config(d_values=None, d_quantiles=(0.9, 0.1))

    def test_quantiles_bounded(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            config(d_values=None, d_quantiles=(0.5, 1.5))
        config(d_values=None, d_quantiles=(0.0, 1.0))  # endpoints allowed

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="positive"):
            config(per_category=0)
        with pytest.raises(ValueError, match="positive"):
            config(b=0)
        with pytest.raises(ValueError, match="k values"):
            config(k_values=())
        with pytest.raises(ValueError, match="k values"):
            config(k_values=(0,))
        with pytest.raises(ValueError, match="seed"):
            config(seeds=())

    def test_solver_subset(self):
        with pytest.raises(ValueError, match="solvers"):
            config(solvers=("exact", "magic"))
        with pytest.raises(ValueError, match="solvers"):
            config(solvers=())
        config(solvers=("exact", "exact-faithful", "heuristic", "heuristic-indexed"))

    @pytest.mark.parametrize(
        "key, values, repeated",
        [
            ("k_values", (2, 1, 2), "2"),
            ("seeds", (0, 0), "0"),
            ("solvers", ("exact", "heuristic", "exact"), "'exact'"),
        ],
        ids=["k_values", "seeds", "solvers"],
    )
    def test_repeated_value_rejected(self, key, values, repeated):
        message = f"config key '{key}' lists {repeated} more than once"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            config(**{key: values})

    def test_json_round_trip(self):
        doc = {
            "dataset": "synthetic", "k_values": [1, 2], "per_category": 3, "b": 2,
            "seeds": [0, 1], "solvers": ["exact"], "coords": "grid.co",
            "d_quantiles": [0.1, 0.9],
        }
        quantiles = config(d_values=None, d_quantiles=(0.1, 0.9), coords="grid.co")
        assert SweepConfig.from_json(json.dumps(doc)) == quantiles
        for cfg in (config(), quantiles):  # unset optionals travel as null
            assert SweepConfig.from_json(json.dumps(dataclasses.asdict(cfg))) == cfg

    def test_from_json_rejects_unknown_keys(self):
        doc = {
            "dataset": "synthetic", "k_values": [1], "per_category": 3, "b": 2,
            "seeds": [0], "d_values": [1.0], "fanout": 16,
        }
        with pytest.raises(ValueError, match="unknown config keys"):
            SweepConfig.from_json(json.dumps(doc))


class TestGenerateQuery:
    def test_deterministic(self, net25):
        assignment = assign_categories(net25, 2, 3, seed=9)
        a = generate_query(net25, 2, assignment, D=5.0, seed=77)
        b = generate_query(net25, 2, assignment, D=5.0, seed=77)
        assert a == b
        c = generate_query(net25, 2, assignment, D=5.0, seed=78)
        assert c.group != a.group

    def test_shape_and_distinct_endpoints(self, net25):
        assignment = assign_categories(net25, 2, 3, seed=9)
        q = generate_query(net25, 3, assignment, D=5.0, seed=1)
        ids = q.group.sources + q.group.destinations
        assert len(ids) == 6 and len(set(ids)) == 6
        assert q.envy_threshold == 5.0
        assert q.categories is assignment

    def test_prefers_vertices_outside_categories(self, net25):
        assignment = assign_categories(net25, 3, 4, seed=9)  # 12 POIs, 13 left
        poi = {v for cat in assignment.categories for v in cat}
        for seed in range(20):
            q = generate_query(net25, 2, assignment, D=1.0, seed=seed)
            assert not poi & set(q.group.sources + q.group.destinations)

    def test_falls_back_to_whole_vertex_set(self, net25):
        assignment = assign_categories(net25, 4, 6, seed=9)  # 24 POIs, 1 left
        q = generate_query(net25, 2, assignment, D=1.0, seed=3)
        ids = q.group.sources + q.group.destinations
        assert len(set(ids)) == 4  # still without replacement

    def test_insufficient_vertices(self):
        tiny = random_network(np.random.default_rng(501), 5)
        assignment = assign_categories(tiny, 1, 1, seed=0)
        with pytest.raises(ValueError, match="insufficient vertices"):
            generate_query(tiny, 3, assignment, D=1.0, seed=0)

    def test_group_size_positive(self, net25):
        assignment = assign_categories(net25, 1, 2, seed=0)
        with pytest.raises(ValueError, match="positive"):
            generate_query(net25, 0, assignment, D=1.0, seed=0)


class TestThresholdQuantiles:
    def test_matches_numpy_quantile(self, net25):
        oracle = build_oracle(net25)
        assignment = assign_categories(net25, 2, 4, seed=5)
        q = generate_query(net25, 2, assignment, D=0.0, seed=5)
        gaps = gap_distribution(q, oracle)
        got = threshold_quantiles(q, oracle, (0.0, 0.25, 0.5, 1.0))
        want = tuple(float(np.quantile(gaps, x)) for x in (0.0, 0.25, 0.5, 1.0))
        assert got == want
        assert got[0] == min(gaps) and got[-1] == max(gaps)
        assert list(got) == sorted(got)


def strip_times(records):
    return [dataclasses.replace(r, wall_time_ms=0.0) for r in records]


class TestRunSweep:
    def test_record_grid_and_order(self, net25):
        cfg = config(solvers=("exact", "heuristic"))
        records = run_sweep(cfg, net=net25)
        assert len(records) == 2 * 2 * 3 * 2  # k x seeds x D x solvers
        keys = [(r.k, r.D, r.seed, r.solver) for r in records]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        assert all(r.dataset == "synthetic" and r.b == 2 for r in records)

    def test_faithful_guard_refuses_before_the_first_cell(self, net25):
        # net25 has too few vertices for 100 POIs per category, so any cell
        # that started would raise ValueError from assign_categories instead
        cfg = config(per_category=100, k_values=(1, 4), solvers=("exact", "exact-faithful"))
        with pytest.raises(
            CapacityError,
            match=r"^exact-faithful would enumerate per_category \*\* k = 100 \*\* 4 = "
            r"100000000 combinations \(> 10000000\); reduce per_category or k$",
        ):
            run_sweep(cfg, net=net25)
        # the exact scan is not guarded, and 10 ** 7 sits at the limit
        for per, k, solvers in ((100, 4, ("exact",)), (10, 7, ("exact-faithful",))):
            with pytest.raises(ValueError, match="insufficient vertices"):
                run_sweep(config(per_category=per, k_values=(k,), solvers=solvers), net=net25)

    def test_exact_rows_semantics(self, net25):
        records = [r for r in run_sweep(config(), net=net25) if r.solver == "exact"]
        by_cell = {}
        for r in records:
            by_cell.setdefault((r.k, r.seed), []).append(r)
        for rows in by_cell.values():
            rows.sort(key=lambda r: r.D)
            # the instance is fixed across the grid: constant minimum gap
            assert len({r.d for r in rows}) == 1
            counts = [r.feasible_count for r in rows]
            assert counts == sorted(counts)
            assert rows[-1].feasible_count == 3 ** rows[-1].k  # D = 1e9
            for r in rows:
                assert (r.epsilon > 0) == (r.feasible_count == 0)
                if r.feasible_count == 0:
                    assert r.epsilon == r.d - r.D  # integer weights: exact
                    assert r.optimal_aggregated is None
                else:
                    assert r.epsilon == 0.0
                    assert r.optimal_aggregated is not None

    def test_faithful_matches_fast_modulo_timing(self, net25):
        # europe_like adds non-integer weights; quantile 0 puts D on the gap minimum
        boundary = config(
            solvers=("exact", "exact-faithful"),
            k_values=(1, 2, 3, 4),
            per_category=5,
            b=4,
            d_values=None,
            d_quantiles=(0.0, 0.1, 0.5, 1.0),
        )
        for cfg, net in (
            (config(solvers=("exact", "exact-faithful")), net25),
            (boundary, europe_like()),
        ):
            records = run_sweep(cfg, net=net)
            fast = strip_times([r for r in records if r.solver == "exact"])
            slow = strip_times([r for r in records if r.solver == "exact-faithful"])
            assert [dataclasses.replace(r, solver="x") for r in fast] == [
                dataclasses.replace(r, solver="x") for r in slow
            ]

    def test_heuristic_rows_semantics(self, net25):
        records = run_sweep(config(solvers=("exact", "heuristic")), net=net25)
        cells = {}
        for r in records:
            cells.setdefault((r.k, r.seed, r.D), {})[r.solver] = r
        for pair in cells.values():
            exact, heur = pair["exact"], pair["heuristic"]
            assert heur.feasible_count in (0, 1)
            if exact.feasible_count == 0:
                assert heur.feasible_count == 0  # no feasible route exists at all
            if heur.feasible_count == 1:
                assert heur.epsilon == 0.0
                assert heur.optimal_aggregated >= exact.optimal_aggregated
            else:
                assert heur.optimal_aggregated is None
                assert heur.epsilon == heur.d - heur.D

    def test_ratio_at_least_one(self, net25):
        # the heuristic never beats the optimum of its own cell
        cfg = config(d_values=(2.0, 1e9), solvers=("exact", "heuristic"))
        cells = {}
        for r in run_sweep(cfg, net=net25):
            cells.setdefault((r.k, r.D, r.seed), {})[r.solver] = r
        ratios = [
            pair["heuristic"].optimal_aggregated / pair["exact"].optimal_aggregated
            for pair in cells.values()
            if pair["heuristic"].feasible_count == 1
        ]
        assert ratios
        assert all(ratio >= 1.0 for ratio in ratios)

    def test_quantile_thresholds_bracket_feasibility(self, net25):
        cfg = config(d_values=None, d_quantiles=(0.0, 0.5, 1.0))
        records = [r for r in run_sweep(cfg, net=net25) if r.solver == "exact"]
        by_cell = {}
        for r in records:
            by_cell.setdefault((r.k, r.seed), []).append(r)
        for rows in by_cell.values():
            rows.sort(key=lambda r: r.D)
            # coinciding quantiles give one threshold, solved once
            assert 1 <= len(rows) == len({r.D for r in rows}) <= 3
            assert rows[0].feasible_count >= 1  # D = min gap: witness is feasible
            assert rows[-1].feasible_count == 3 ** rows[-1].k
            counts = [r.feasible_count for r in rows]
            assert counts == sorted(counts)

    def test_coinciding_quantiles_solve_each_cell_once(self, net25, monkeypatch):
        solves = []
        solve = efgtp.experiments._solve
        monkeypatch.setattr(
            efgtp.experiments, "threshold_quantiles", lambda *args: (2.0, 2.0, 0.5, 2.0, 9.0)
        )
        monkeypatch.setattr(
            efgtp.experiments, "_solve", lambda q, *args: (solves.append(q), solve(q, *args))[1]
        )
        cfg = config(d_values=None, d_quantiles=(0.0, 0.25, 0.5, 0.75, 1.0))
        records = run_sweep(cfg, net=net25)
        # the first of each repeat is kept, in the order the quantiles gave them
        assert [q.envy_threshold for q in solves] == [2.0, 0.5, 9.0] * 4
        assert sorted((r.k, r.seed, r.D) for r in records) == [
            (k, seed, D) for k in (1, 2) for seed in (0, 1) for D in (0.5, 2.0, 9.0)
        ]

    def test_indexed_heuristic_runs_with_coords(self, net25):
        rng = np.random.default_rng(502)
        net = net25.with_coords(rng.random((net25.vertex_count, 2)) * 10)
        cfg = config(solvers=("heuristic-indexed",), k_values=(2,), seeds=(0,))
        records = run_sweep(cfg, net=net)
        assert len(records) == 3
        assert all(r.solver == "heuristic-indexed" for r in records)

    def test_singleton_categories_give_unit_ratio(self, net25):
        # one combination per instance: the greedy route is the optimum
        cfg = config(per_category=1, d_values=(1e9,), solvers=("exact", "heuristic"))
        cells = {}
        for r in run_sweep(cfg, net=net25):
            cells.setdefault((r.k, r.D, r.seed), {})[r.solver] = r
        assert len(cells) == 4  # k x seeds
        for pair in cells.values():
            exact, heur = pair["exact"], pair["heuristic"]
            assert heur.feasible_count == 1
            assert heur.optimal_aggregated / exact.optimal_aggregated == 1.0

    def test_indexed_and_plain_heuristics_differ(self):
        # europe_like has coordinates, and its indexed and plain heuristic
        # routes differ on some cells, so a wrong pick cannot pass unseen
        cfg = config(
            k_values=(2, 3), per_category=6, b=3, seeds=(1, 2), solvers=SOLVERS,
            d_values=None, d_quantiles=(0.0, 0.3, 1.0),
        )
        cells = {}
        for r in run_sweep(cfg, net=europe_like()):
            cells.setdefault((r.k, r.D, r.seed), {})[r.solver] = r
        assert len(cells) == 2 * 2 * 3
        differ = 0
        for row in cells.values():
            exact = row["exact"]
            for solver in ("heuristic", "heuristic-indexed"):
                if row[solver].feasible_count == 1:
                    assert row[solver].optimal_aggregated >= exact.optimal_aggregated
            plain, indexed = row["heuristic"], row["heuristic-indexed"]
            differ += (plain.optimal_aggregated, plain.d) != (indexed.optimal_aggregated, indexed.d)
        assert differ > 0


def assert_cells_read_back(text, records):
    """Each CSV cell reads back to its record's field: '' for None,
    float(cell) == value for floats, str(value) otherwise."""
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == len(records)
    for row, r in zip(rows, records):
        assert list(row) == [f.name for f in dataclasses.fields(r)]
        for name, cell in row.items():
            value = getattr(r, name)
            if value is None:
                assert cell == ""
            elif isinstance(value, float):
                assert float(cell) == value
            else:
                assert cell == str(value)


class TestCsvRoundTrips:
    def test_sweep_round_trip(self, net25):
        records = run_sweep(config(solvers=("exact", "heuristic")), net=net25)
        text = records_to_csv(records)
        assert_cells_read_back(text, records)
        assert "\r" not in text
        assert text.splitlines()[0] == (
            "dataset,k,b,D,seed,solver,feasible_count,optimal_aggregated,d,"
            "epsilon,wall_time_ms"
        )

    def test_sweep_none_fields_round_trip(self):
        r = SweepRecord(
            dataset="x", k=1, b=1, D=0.5, seed=0, solver="exact",
            feasible_count=0, optimal_aggregated=None, d=1.75, epsilon=1.25,
            wall_time_ms=0.125,
        )
        text = records_to_csv([r])
        assert text.splitlines()[1] == "x,1,1,0.5,0,exact,0,,1.75,1.25,0.125"
        assert_cells_read_back(text, [r])

    def test_float_cells_round_trip_exactly(self):
        r = SweepRecord(
            dataset="x", k=2, b=1, D=0.1, seed=3, solver="heuristic", feasible_count=1,
            optimal_aggregated=0.7 / 0.3, d=0.3, epsilon=0.0, wall_time_ms=1e-7,
        )
        assert_cells_read_back(records_to_csv([r]), [r])


class TestLoadNetwork:
    def test_reads_edge_list(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1 2.0\n1 2 3.0\n")
        net = load_network(str(p))
        assert net.vertex_count == 3 and net.edge_count == 2

    def test_keeps_largest_component(self, tmp_path, caplog):
        p = tmp_path / "g.txt"
        p.write_text("0 1 1\n1 2 1\n2 3 1\n10 11 1\n")
        with caplog.at_level("INFO", logger="efgtp.experiments"):
            net = load_network(str(p))
        assert net.vertex_count == 4
        assert any("disconnected" in m for m in caplog.messages)

    def test_attaches_coordinates(self, tmp_path):
        g = tmp_path / "g.txt"
        g.write_text("0 1 5.0\n")
        c = tmp_path / "g.co"
        c.write_text("0 0.0 0.0\n1 3.0 4.0\n")
        net = load_network(str(g), coords=str(c))
        assert net.coords is not None
        assert float(net.coords[1, 0]) == 3.0
