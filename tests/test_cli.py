"""CLI behavior: exit codes, schema validity, determinism, and formats."""

import json

import numpy as np
import pytest
from jsonschema import validate

from gframes import fixtures, is_regular
from gframes.cli import REPORT_SCHEMA

from _oracles import edge_list_text, fixture_path, random_connected_graph, run_cli

SQRT10_OVER_4 = np.sqrt(10.0) / 4.0


class TestExitCodes:
    def test_success(self):
        code, out, err = run_cli(["graph-info", fixture_path("k3")])
        assert code == 0 and err == ""

    def test_missing_file(self):
        code, _, err = run_cli(["graph-info", "no/such/file.edges"])
        assert code == 1 and "error" in err

    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_text("2 1\n1 1\n")
        code, _, err = run_cli(["graph-info", bad])
        assert code == 1 and "self-loop" in err

    def test_isolated_vertex_rejected_for_frames(self, tmp_path):
        lonely = tmp_path / "lonely.edges"
        lonely.write_text("3 1\n1 2\n")
        code, _, err = run_cli(["frame-build", lonely])
        assert code == 1 and "isolated" in err
        # graph-info has no frame, so it still works
        code, _, _ = run_cli(["graph-info", lonely])
        assert code == 0

    def test_guard_exceeded(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 60
        lines = []
        edges = [(u, u + 1) for u in range(1, n)]
        edges += [
            (int(u), int(v))
            for u, v in rng.integers(1, n + 1, size=(300, 2))
            if u < v and (u, v) not in edges and abs(u - v) > 1
        ]
        edges = sorted(set(edges))
        lines.append(f"{n} {len(edges)}")
        lines += [f"{u} {v}" for u, v in edges]
        big = tmp_path / "big.edges"
        big.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(["dr-table", big, "--max-r", "5"])
        assert code == 3 and "guard" in err

    def test_usage_error(self):
        code, _, _ = run_cli(["no-such-command", "x"])
        assert code == 1

    @pytest.mark.parametrize("command,routine", [("dr-table", "eigvals"), ("frame-spark", "svd")])
    def test_lapack_failure_is_numerical(self, monkeypatch, command, routine):
        # LinAlgError subclasses ValueError, yet it is a numerical failure
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, routine, fail)
        code, _, err = run_cli([command, fixture_path("figure2")])
        assert code == 2 and "numerical failure" in err

    def test_irregular_graph_census_stops_at_degrees(self, tmp_path):
        # a dense irregular graph whose closed-walk counts pass 2^63 long
        # before the census would reach its number of distinct eigenvalues
        g = random_connected_graph(np.random.default_rng(1), 30, 30)
        assert is_regular(g) is None
        path = tmp_path / "irregular.edges"
        path.write_text(edge_list_text(g))
        code, out, err = run_cli(["graph-info", path])
        assert code == 0, err
        walk = json.loads(out)["graph"]["walk_regular"]
        assert walk["is_walk_regular"] is False
        assert walk["first_violation"]["power"] == 2
        code, out, err = run_cli(["od-verdict", path])
        assert code == 0, err
        assert json.loads(out)["erasure"]["verdict"] == "NOT_OD"


class TestJsonReports:
    @pytest.mark.parametrize("command", ["graph-info", "frame-build", "frame-spark", "od-verdict"])
    @pytest.mark.parametrize("name", ["k3", "figure1", "figure2"])
    def test_schema_valid(self, command, name):
        code, out, _ = run_cli([command, fixture_path(name)])
        assert code == 0
        validate(json.loads(out), REPORT_SCHEMA)

    def test_od_search_schema_and_family_note(self):
        code, out, _ = run_cli(["od-search", fixture_path("figure2"), "--trials", "300"])
        assert code == 0
        report = json.loads(out)
        validate(report, REPORT_SCHEMA)
        best = report["erasure"]["search_best"]
        assert best["improved"] is True
        assert best["basis_dependent"] is True
        assert "shifts" in best and "family" in best

    def test_dr_table_schema(self):
        code, out, _ = run_cli(["dr-table", fixture_path("c4"), "--max-r", "3"])
        assert code == 0
        report = json.loads(out)
        validate(report, REPORT_SCHEMA)
        rows = report["erasure"]["dr_table"]["canonical"]
        assert [row["r"] for row in rows] == [1, 2, 3]

    def test_dr_table_monte_carlo_rows(self, monkeypatch, tmp_path):
        import gframes.cli as cli_module
        monkeypatch.setattr(cli_module, "DR_GUARD", 10)
        code, _, err = run_cli(["dr-table", fixture_path("figure2"), "--max-r", "2"])
        assert code == 3 and "guard" in err
        code, out, _ = run_cli([
            "dr-table", fixture_path("figure2"), "--max-r", "2", "--mc-samples", "5",
        ])
        assert code == 0
        rows = json.loads(out)["erasure"]["dr_table"]["canonical"]
        assert "lower_bound" not in rows[0]             # C(8,1) = 8 <= 10: exact
        assert rows[1]["lower_bound"] is True           # C(8,2) = 28 > 10: sampled
        assert rows[1]["samples"] == 5
        assert rows[1]["value"] <= 1.195228609 + 1e-9   # bounded by the exact D^2

    @pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
    def test_dr_table_single_erasure_row_is_first_lambda1_vertex(self, name):
        _, verdict, _ = run_cli(["od-verdict", fixture_path(name)])
        code, out, _ = run_cli(["dr-table", fixture_path(name), "--max-r", "1"])
        assert code == 0
        row = json.loads(out)["erasure"]["dr_table"]["canonical"][0]
        assert row["max_subset"] == [min(json.loads(verdict)["erasure"]["lambda1_set"])]

    def test_dr_table_subsets_in_vertex_order(self, tmp_path):
        # two paths whose vertex labels interleave: 5-1-6 and 2-3-4
        path = tmp_path / "interleaved.edges"
        path.write_text("6 4\n5 1\n1 6\n2 3\n3 4\n")
        _, verdict, _ = run_cli(["od-verdict", path])
        assert json.loads(verdict)["erasure"]["lambda1_set"] == [2, 4, 5, 6]
        code, out, _ = run_cli(["dr-table", path, "--max-r", "3"])
        assert code == 0
        rows = json.loads(out)["erasure"]["dr_table"]["canonical"]
        assert rows[0]["max_subset"] == [2]
        assert rows[2]["max_subset"] == [1, 2, 3]

    def test_dr_table_custom_dual(self, tmp_path):
        shifts = tmp_path / "shifts.json"
        shifts.write_text("[[0.001, -0.001, 0, 0, 0, 0, 0]]")
        code, out, _ = run_cli([
            "dr-table", fixture_path("figure2"), "--max-r", "1", "--shifts-file", shifts,
        ])
        assert code == 0
        report = json.loads(out)
        assert "custom" in report["erasure"]["dr_table"]

    def test_graph_info_content(self):
        _, out, _ = run_cli(["graph-info", fixture_path("figure2")])
        graph = json.loads(out)["graph"]
        assert graph["regular"] == 3
        assert graph["walk_regular"]["is_walk_regular"] is False
        assert graph["walk_regular"]["first_violation"]["power"] == 3
        assert graph["walk_regular"]["definition_check_agrees"] is True

    def test_od_verdict_content(self):
        _, out, _ = run_cli(["od-verdict", fixture_path("figure1")])
        erasure = json.loads(out)["erasure"]
        assert erasure["verdict"] == "OD_1_ERASURE"
        assert erasure["lambda1_set"] == [4, 5, 6, 7]
        assert erasure["d1_canonical"] == pytest.approx(SQRT10_OVER_4, abs=1e-9)
        assert erasure["verdict_basis"]["uniqueness"] == "not_unique"

    def test_emit_vectors(self):
        _, plain, _ = run_cli(["frame-build", fixture_path("k3")])
        _, with_vectors, _ = run_cli(["frame-build", fixture_path("k3"), "--emit-vectors"])
        assert "vectors" not in json.loads(plain)["frame"]
        frame = json.loads(with_vectors)["frame"]
        assert frame["basis_dependent"] is True
        assert len(frame["vectors"]) == 3 and len(frame["vectors"][0]) == 2

    def test_absent_sections_omitted(self):
        _, out, _ = run_cli(["graph-info", fixture_path("k3")])
        report = json.loads(out)
        assert "frame" not in report and "erasure" not in report and "spark" not in report
        assert "null" not in out

    def test_config_echoed(self):
        _, out, _ = run_cli(["od-verdict", fixture_path("k3"), "--tie-tol", "1e-10", "--seed", "5"])
        config = json.loads(out)["config"]
        assert config["tie_tol"] == 1e-10
        assert config["seed"] == 5
        assert config["zero_tol"] == "auto"

    def test_floats_have_at_most_12_significant_digits(self):
        _, out, _ = run_cli(["od-verdict", fixture_path("figure2")])
        for token in out.replace(",", " ").replace("]", " ").replace("[", " ").split():
            try:
                float(token)
            except ValueError:
                continue
            digits = token.lstrip("-").replace(".", "").split("e")[0].lstrip("0")
            assert len(digits) <= 12, token


class TestDeterminism:
    @pytest.mark.parametrize("command,name", [
        ("graph-info", "petersen"),
        ("frame-build", "figure1"),
        ("frame-spark", "figure1"),
        ("od-verdict", "figure2"),
        ("od-search", "figure2"),
        ("dr-table", "c4"),
    ])
    def test_byte_identical_reruns(self, command, name):
        first = run_cli([command, fixture_path(name), "--trials", "200"])
        second = run_cli([command, fixture_path(name), "--trials", "200"])
        assert first == second
        assert first[0] == 0


class TestOtherFormats:
    def test_csv_rows_per_vertex(self):
        code, out, _ = run_cli(["od-verdict", fixture_path("figure2"), "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "vertex,degree,component,norm_squared,product,in_lambda1"
        assert len(lines) == 9
        in_lambda = [line.split(",")[-1] for line in lines[1:]]
        assert in_lambda.count("True") == 4

    def test_csv_graph_info(self):
        _, out, _ = run_cli(["graph-info", fixture_path("figure1"), "--format", "csv"])
        lines = out.strip().splitlines()
        assert lines[0] == "vertex,degree,component"
        assert lines[1] == "1,2,0"
        assert lines[-1] == "7,2,1"

    def test_csv_dr_table(self):
        _, out, _ = run_cli(["dr-table", fixture_path("k3"), "--max-r", "2", "--format", "csv"])
        lines = out.strip().splitlines()
        assert lines[0] == "dual,r,value,lower_bound,max_subset"
        assert len(lines) == 3

    def test_text_verdict(self):
        _, out, _ = run_cli(["od-verdict", fixture_path("figure2"), "--format", "text"])
        assert "verdict: NOT_OD" in out
        assert "lambda1 set: [2, 5, 7, 8]" in out

    def test_text_spark(self):
        _, out, _ = run_cli(["frame-spark", fixture_path("figure1"), "--format", "text"])
        assert "spark: 3" in out
        assert "methods agree: True" in out
