"""End-to-end command tests driven through main(argv) with pinned outputs."""

import csv
import json
import re
from pathlib import Path

import pytest

from efgtp import europe_like, format_edge_list
from efgtp.cli import main
from efgtp.heuristic import INDEX_MODES

DATA = Path(__file__).resolve().parent.parent / "data"
GRAPH = str(DATA / "sample-graph.txt")
COORDS = str(DATA / "sample-coords.txt")
QUERY = str(DATA / "sample-query.json")

# sample instance: 4x3 grid, sources {0, 8}, destinations {3, 11},
# categories [1, 6] then [9, 11], envy threshold 4 (all hand-checked)
OPTIMAL_LINES = [
    "OPTIMAL combination=6,11 aggregated=18.0 max_gap=4.0 feasible_count=4",
    "per_member=11.0,7.0",
]
HEURISTIC_LINES = [
    "HEURISTIC combination=1,11 aggregated=22.0 max_gap=0.0 feasible=1 "
    "gnn_queries=2 nn_queries=0",
    "per_member=11.0,11.0",
]
DEBUG_MATRIX = """\
v1,v2,aggregated,max_gap,feasible
1,9,22.0,0.0,1
1,11,22.0,0.0,1
6,9,22.0,4.0,1
6,11,18.0,4.0,1
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolveExact:
    def test_optimal_output(self, capsys):
        code, out, _ = run(capsys, "solve-exact", "--graph", GRAPH, "--query", QUERY)
        assert code == 0
        assert out.splitlines() == OPTIMAL_LINES

    def test_faithful_and_workers_agree(self, capsys):
        code, out, _ = run(capsys, "solve-exact", "--graph", GRAPH, "--query", QUERY, "--faithful")
        assert code == 0
        assert out.splitlines() == OPTIMAL_LINES
        # the solver is serial; the former --workers option is a usage error
        code, _, err = run(
            capsys, "solve-exact", "--graph", GRAPH, "--query", QUERY, "--workers", "2"
        )
        assert code == 1
        assert "--workers" in err

    def test_coords_do_not_change_result(self, capsys):
        code, out, _ = run(
            capsys, "solve-exact", "--graph", GRAPH, "--coords", COORDS, "--query", QUERY
        )
        assert code == 0
        assert out.splitlines() == OPTIMAL_LINES

    def test_infeasible_output(self, capsys, tmp_path):
        # path 0-1-2-3-4 whose three middle POIs give member gaps 9, 7, 5
        g = tmp_path / "g.txt"
        g.write_text("0 1 2.75\n1 2 0.5\n2 3 0.5\n3 4 6.25\n")
        q = tmp_path / "q.json"
        q.write_text(
            json.dumps(
                {
                    "sources": ["0", "4"],
                    "destinations": ["0", "4"],
                    "categories": [["1", "2", "3"]],
                    "D": 3.0,
                }
            )
        )
        code, out, _ = run(capsys, "solve-exact", "--graph", str(g), "--query", str(q))
        assert code == 0
        assert out.splitlines() == ["INFEASIBLE d=5.0 epsilon=2.0", "witness=3"]

    def test_debug_matrix_file(self, capsys, tmp_path):
        target = tmp_path / "matrix.csv"
        code, out, _ = run(
            capsys,
            "solve-exact", "--graph", GRAPH, "--query", QUERY,
            "--debug-matrix", str(target),
        )
        assert code == 0
        assert out.splitlines() == OPTIMAL_LINES
        assert target.read_text() == DEBUG_MATRIX

    def test_refused_debug_matrix_leaves_file_untouched(self, capsys, tmp_path):
        # 101 ** 3 = 1,030,301 combinations: over the debug matrix's 1e6 cap
        net = europe_like()
        g = tmp_path / "g.txt"
        g.write_text(format_edge_list(net))
        ids = net.external_ids
        q = tmp_path / "q.json"
        q.write_text(
            json.dumps(
                {
                    "sources": [ids[0]],
                    "destinations": [ids[1]],
                    "categories": [ids[2 + 101 * i : 2 + 101 * (i + 1)] for i in range(3)],
                    "D": 1.0,
                }
            )
        )
        target = tmp_path / "matrix.csv"
        target.write_bytes(b"keep,these\nbytes\n")
        code, out, err = run(
            capsys,
            "solve-exact", "--graph", str(g), "--query", str(q),
            "--debug-matrix", str(target),
        )
        assert code == 3
        assert "debug matrix" in err and out == ""
        assert target.read_bytes() == b"keep,these\nbytes\n"
        missing = tmp_path / "absent.csv"
        code, _, _ = run(
            capsys,
            "solve-exact", "--graph", str(g), "--query", str(q),
            "--debug-matrix", str(missing),
        )
        assert code == 3
        assert not missing.exists()


class TestSolveHeuristic:
    def test_route_output(self, capsys):
        code, out, _ = run(capsys, "solve-heuristic", "--graph", GRAPH, "--query", QUERY)
        assert code == 0
        assert out.splitlines() == HEURISTIC_LINES

    def test_indexed_same_route_on_grid(self, capsys):
        code, out, _ = run(
            capsys,
            "solve-heuristic", "--graph", GRAPH, "--coords", COORDS,
            "--query", QUERY, "--index", "euclidean",
        )
        assert code == 0
        assert out.splitlines() == HEURISTIC_LINES

    def test_indexed_without_coords_fails_cleanly(self, capsys):
        code, _, err = run(
            capsys,
            "solve-heuristic", "--graph", GRAPH, "--query", QUERY,
            "--index", "euclidean",
        )
        assert code == 2
        assert "coordinates" in err

    def test_index_choices_are_the_library_modes(self, capsys):
        code, out, err = run(
            capsys,
            "solve-heuristic", "--graph", GRAPH, "--query", QUERY,
            "--index", "rtree",
        )
        assert code == 1 and out == ""
        choices = re.search(r"\[--index \{([^}]*)\}\]", err).group(1)
        assert choices.split(",") == [mode for mode in INDEX_MODES if mode is not None]
        assert choices == "euclidean"


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def write_config(tmp_path, **overrides):
    doc = {
        "dataset": GRAPH,
        "k_values": [1, 2],
        "per_category": 2,
        "b": 2,
        "seeds": [1, 2],
        "solvers": ["exact", "heuristic"],
        "d_quantiles": [0.1, 0.5, 0.9],
    }
    doc.update(overrides)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(doc))
    return str(p)


class TestSweepAndBench:
    def test_sweep_writes_csv(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run(
            capsys, "sweep", "--config", write_config(tmp_path), "--out", str(out_path)
        )
        assert code == 0
        records = read_csv(out_path)
        # k x seeds x distinct gap quantiles x solvers: three quantiles
        # coincide in some cells, and each threshold is solved once
        assert len(records) == 16
        assert len({(r["k"], r["seed"], r["D"], r["solver"]) for r in records}) == 16
        assert out.strip() == f"wrote {len(records)} records to {out_path}"

    def test_sample_config_from_repo_root(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(DATA.parent)
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys, "sweep", "--config", str(DATA / "sample-sweep.json"),
            "--out", str(out_path),
        )
        assert code == 0
        assert len(read_csv(out_path)) == 16

    def test_sweep_faithful_guard_exits_3(self, capsys, tmp_path):
        cfg = write_config(tmp_path, per_category=100, k_values=[1, 4], solvers=["exact-faithful"])
        out_path = tmp_path / "x.csv"
        code, out, err = run(capsys, "sweep", "--config", cfg, "--out", str(out_path))
        assert code == 3 and out == ""
        assert "error: exact-faithful would enumerate per_category ** k = 100 ** 4" in err
        assert not out_path.exists()

    def test_bench_is_a_usage_error(self, capsys, tmp_path):
        # the former bench command: its ratio is a join of sweep rows
        out_path = tmp_path / "bench.csv"
        code, out, err = run(
            capsys, "bench", "--config", write_config(tmp_path), "--out", str(out_path)
        )
        assert code == 1 and out == ""
        assert "error: argument command: invalid choice: 'bench'" in err
        assert not out_path.exists()


class TestExitCodes:
    def test_missing_required_argument(self, capsys):
        code, _, err = run(capsys, "solve-exact", "--graph", GRAPH)
        assert code == 1
        assert "usage" in err and "--query" in err

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "conquer")
        assert code == 1
        assert "usage" in err

    def test_no_command(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert "a command is required" in err

    def test_missing_graph_file(self, capsys):
        code, _, err = run(
            capsys, "solve-exact", "--graph", "/nonexistent/g.txt", "--query", QUERY
        )
        assert code == 2
        assert "error:" in err

    def test_malformed_query_json(self, capsys, tmp_path):
        q = tmp_path / "q.json"
        q.write_text("{not json")
        code, _, err = run(capsys, "solve-exact", "--graph", GRAPH, "--query", str(q))
        assert code == 2
        assert "error:" in err

    def test_unknown_vertex_in_query(self, capsys, tmp_path):
        q = tmp_path / "q.json"
        q.write_text(
            json.dumps(
                {
                    "sources": ["0"],
                    "destinations": ["99"],
                    "categories": [["1"]],
                    "D": 1.0,
                }
            )
        )
        code, out, err = run(capsys, "solve-exact", "--graph", GRAPH, "--query", str(q))
        assert code == 2
        assert err == "error: query 'destinations': unknown vertex id '99'\n" and out == ""

    @pytest.mark.parametrize(
        "override, key, written",
        [
            ({"sources": [0, 99]}, "sources", "99"),
            ({"categories": [["1", "6"], [9, "011"]]}, "categories", "011"),
        ],
        ids=["sources-integer", "categories-leading-zero"],
    )
    def test_unknown_vertex_named_as_written(self, capsys, tmp_path, override, key, written):
        doc = json.loads(Path(QUERY).read_text())
        doc.update(override)
        q = tmp_path / "q.json"
        q.write_text(json.dumps(doc))
        code, out, err = run(capsys, "solve-exact", "--graph", GRAPH, "--query", str(q))
        assert code == 2
        assert err == f"error: query {key!r}: unknown vertex id {written!r}\n" and out == ""

    @pytest.mark.parametrize(
        "categories",
        [[["20"], ["20"]], [["20", "30"], [30]], [["20", "20"]]],
        ids=["two-categories", "string-and-integer", "one-category"],
    )
    def test_repeated_poi_named_by_its_file_id(self, capsys, tmp_path, categories):
        graph = tmp_path / "g.txt"
        graph.write_text("10 20 1\n20 30 1\n30 40 1\n")
        q = tmp_path / "q.json"
        q.write_text(
            json.dumps(
                {"sources": ["10"], "destinations": ["40"], "categories": categories, "D": 1.0}
            )
        )
        code, out, err = run(capsys, "solve-exact", "--graph", str(graph), "--query", str(q))
        assert code == 2
        vertex = str(categories[-1][-1])
        assert err == f"error: query 'categories' lists vertex {vertex!r} more than once\n"
        assert out == ""

    @pytest.mark.parametrize(
        "override, key",
        [
            ({"sources": 5}, "sources"),
            ({"D": None}, "D"),
            ({"sources": "08"}, "sources"),  # a string is not a list of ids
            ({"categories": ["16", ["9"]]}, "categories"),
            ({"D": "4"}, "D"),
        ],
        ids=["sources-number", "D-null", "sources-string", "categories-string", "D-string"],
    )
    def test_malformed_query_value(self, capsys, tmp_path, override, key):
        doc = json.loads(Path(QUERY).read_text())
        doc.update(override)
        q = tmp_path / "q.json"
        q.write_text(json.dumps(doc))
        code, out, err = run(capsys, "solve-exact", "--graph", GRAPH, "--query", str(q))
        assert code == 2
        assert f"error: query {key!r} must be" in err and out == ""

    def test_query_without_categories(self, capsys, tmp_path):
        doc = json.loads(Path(QUERY).read_text())
        doc["categories"] = []
        q = tmp_path / "q.json"
        q.write_text(json.dumps(doc))
        for command in ("solve-exact", "solve-heuristic"):
            code, out, err = run(capsys, command, "--graph", GRAPH, "--query", str(q))
            assert code == 2
            assert "error: categories must hold at least one category" in err and out == ""

    @pytest.mark.parametrize(
        "override, key",
        [
            ({"k_values": 2}, "k_values"),
            ({"per_category": "2"}, "per_category"),
            ({"d_quantiles": None, "d_values": [1.0, None]}, "d_values"),
            ({"seeds": "12"}, "seeds"),
            ({"b": 2.5}, "b"),
            ({"solvers": "exact"}, "solvers"),
        ],
        ids=[
            "k_values-number", "per_category-string", "d_values-null-item",
            "seeds-string", "b-fraction", "solvers-string",
        ],
    )
    def test_malformed_config_value(self, capsys, tmp_path, override, key):
        cfg = write_config(tmp_path, **override)
        out_path = tmp_path / "sweep.csv"
        code, out, err = run(capsys, "sweep", "--config", cfg, "--out", str(out_path))
        assert code == 2
        assert f"error: config key {key!r} must be" in err and out == ""
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "override, key",
        [
            ({"seeds": [-1]}, "seeds"),
            ({"d_quantiles": None, "d_values": [-1.0]}, "d_values"),
            ({"d_quantiles": None, "d_values": [float("nan")]}, "d_values"),
        ],
        ids=["seeds-negative", "d_values-negative", "d_values-nan"],
    )
    def test_out_of_range_config_value(self, capsys, tmp_path, override, key):
        # the dataset does not exist, so naming the key shows the config was
        # refused before any load
        cfg = write_config(tmp_path, dataset=str(tmp_path / "absent.txt"), **override)
        out_path = tmp_path / "sweep.csv"
        code, out, err = run(capsys, "sweep", "--config", cfg, "--out", str(out_path))
        assert code == 2
        assert f"error: config key {key!r} must hold nonnegative" in err and out == ""
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[]", "must hold a JSON object"),
            (json.dumps({"dataset": GRAPH}), "missing config keys"),
        ],
        ids=["top-level-list", "missing-keys"],
    )
    def test_malformed_config_document(self, capsys, tmp_path, text, message):
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        code, _, err = run(capsys, "sweep", "--config", str(cfg), "--out", str(tmp_path / "o.csv"))
        assert code == 2
        assert message in err

    def test_bad_config_value(self, capsys, tmp_path):
        cfg = write_config(tmp_path, per_category=0)
        code, _, err = run(capsys, "sweep", "--config", cfg, "--out", str(tmp_path / "o.csv"))
        assert code == 2
        assert "positive" in err

    def test_repeated_config_value(self, capsys, tmp_path):
        cfg = write_config(tmp_path, seeds=[1, 2, 1])
        code, out, err = run(capsys, "sweep", "--config", cfg, "--out", str(tmp_path / "o.csv"))
        assert code == 2
        assert err == "error: config key 'seeds' lists 1 more than once\n" and out == ""
        assert not (tmp_path / "o.csv").exists()

    def test_help_exits_zero(self, capsys):
        code, out, err = run(capsys, "--help")
        assert code == 0
        assert "solve-exact" in out + err

