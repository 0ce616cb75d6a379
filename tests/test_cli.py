"""CLI behavior: exit codes, schema validity, determinism, and formats."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from jsonschema import validate

from gframes import Graph, build_lg_frame, is_regular, parse_edge_list
from gframes.cli import COMMANDS, REPORT_SCHEMA, _build_parser, render_json
from gframes.erasure import DR_GUARD

from _oracles import (
    FIXTURES,
    c4_corona,
    cubic8,
    edge_list_text,
    fixture_path,
    random_connected_graph,
    run_cli,
)

SQRT10_OVER_4 = np.sqrt(10.0) / 4.0

#: The options each command takes, and nothing else.
OPTIONS = {
    "graph-info": ("--format",),
    "frame-build": ("--format", "--emit-vectors"),
    "frame-spark": ("--format", "--emit-vectors"),
    "od-verdict": ("--format", "--emit-vectors"),
    "od-search": ("--format", "--emit-vectors"),
    "dr-table": ("--format", "--emit-vectors", "--seed", "--max-r", "--shifts-file", "--mc-samples"),
}
#: A valid value for every option some command takes, and for the removed
#: tolerance and search flags; ``None`` marks a switch.
OPTION_VALUES = {
    "--format": "text", "--emit-vectors": None, "--seed": "5", "--trials": "7",
    "--radius": "0.5", "--max-r": "2", "--shifts-file": "shifts.json", "--mc-samples": "5",
    "--tie-tol": "0.5", "--group-tol": "1",
}
#: The ``config`` key each option is echoed under.
CONFIG_KEYS = {
    "--format": "output_format", "--emit-vectors": "emit_vectors", "--seed": "seed",
    "--max-r": "max_r",
    "--shifts-file": "shifts_file", "--mc-samples": "mc_samples",
}
#: Options without a default, echoed only when given.
NO_DEFAULT = ("--shifts-file", "--mc-samples")


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

    @pytest.mark.parametrize("text,label", [("3 1\n1 2\n", 3), ("1 0\n", 1)])
    def test_isolated_vertex_named_by_its_file_label(self, tmp_path, text, label):
        # the CLI names the edge list's 1-based label, the API the 0-based vertex
        lonely = tmp_path / "lonely.edges"
        lonely.write_text(text)
        code, out, err = run_cli(["frame-build", lonely])
        assert code == 1 and out == "" and f"vertex {label} is isolated" in err
        with pytest.raises(ValueError, match=f"vertex {label - 1} is isolated"):
            build_lg_frame(parse_edge_list(text))

    @pytest.mark.parametrize("depth", [900, 5000])
    def test_deeply_nested_shifts_file(self, tmp_path, depth):
        # nesting deeper than the recursion limit is unusable input, not a
        # numerical failure (RecursionError is a RuntimeError)
        shifts = tmp_path / "shifts.json"
        shifts.write_text("[" * depth + "]" * depth)
        code, out, err = run_cli([
            "dr-table", fixture_path("figure1"), "--max-r", "1", "--shifts-file", shifts,
        ])
        assert code == 1 and out == "" and "shifts file must hold a matrix of numbers" in err

    def test_vertex_count_beyond_2_31(self, tmp_path):
        huge = tmp_path / "huge.edges"
        huge.write_text("99999999999999999999 0\n")
        for command in ("graph-info", "frame-build"):
            code, out, err = run_cli([command, huge])
            assert code == 1 and out == ""
            assert "line 1: vertex count must be at most 2^31" in err

    def test_mc_samples_bounded_by_the_guard(self):
        # refused while parsing: the input is never read and no draw is made
        code, out, err = run_cli(["dr-table", "no/such/file.edges", "--mc-samples", "1000000000000"])
        assert code == 1 and out == "" and "--mc-samples" in err and "no/such/file" not in err
        code, _, _ = run_cli(["dr-table", fixture_path("k3"), "--max-r", "1",
                              "--mc-samples", str(DR_GUARD)])
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

    @pytest.mark.parametrize("command", COMMANDS)
    def test_zero_tol_is_not_an_option(self, command):
        # the zero-eigenvalue count is the component count; no flag sets it
        code, out, err = run_cli([command, fixture_path("path3"), "--zero-tol", "1e-9"])
        assert code == 1 and out == "" and "--zero-tol" in err

    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command in COMMANDS for flag in OPTION_VALUES
        if flag not in OPTIONS[command]
    ])
    def test_option_not_taken_is_rejected(self, command, flag):
        # among them graph-info --group-tol 1, which called cubic8 walk-regular,
        # and od-verdict --tie-tol 0.5, which certified a NOT_OD graph
        value = OPTION_VALUES[flag]
        argv = [command, fixture_path("figure2"), flag] + ([] if value is None else [value])
        code, out, err = run_cli(argv)
        assert code == 1 and out == "" and flag in err

    @pytest.mark.parametrize("command,flag", [
        ("od-verdict", "--trials"), ("od-search", "--trials"), ("od-verdict", "--radius"),
        ("od-search", "--radius"), ("dr-table", "--max-r"), ("dr-table", "--mc-samples"),
    ])
    def test_out_of_range_value_is_rejected(self, command, flag):
        # neither od-verdict nor od-search takes --trials or --radius: they
        # reject them as flags they do not take, before any range check
        code, out, err = run_cli([command, fixture_path("k3"), flag, "0"])
        assert code == 1 and out == "" and flag in err

    @pytest.mark.parametrize("command", ["od-verdict", "od-search"])
    @pytest.mark.parametrize("radius", ["inf", "nan", "-0.01"])
    def test_radius_must_be_positive_and_finite(self, command, radius):
        # rejected while parsing: the input is never read, so no numpy warning
        code, out, err = run_cli([command, "no/such/file.edges", "--radius", radius])
        assert code == 1 and out == "" and "--radius" in err
        assert "RuntimeWarning" not in err and "no/such/file" not in err

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
        code, out, _ = run_cli(["od-search", fixture_path("figure2")])
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

    @pytest.mark.parametrize("name", sorted(FIXTURES))
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

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_d1_canonical_same_in_verdict_and_dr_table(self, name):
        lines = []
        for command in ("od-verdict", "dr-table"):
            _, out, _ = run_cli([command, fixture_path(name)])
            lines += [line.strip() for line in out.splitlines() if '"d1_canonical"' in line]
        assert len(lines) == 2 and lines[0] == lines[1]

    def test_dr_table_custom_dual(self, tmp_path):
        shifts = tmp_path / "shifts.json"
        shifts.write_text("[[0.001, -0.001, 0, 0, 0, 0, 0]]")
        code, out, _ = run_cli([
            "dr-table", fixture_path("figure2"), "--max-r", "1", "--shifts-file", shifts,
        ])
        assert code == 0
        report = json.loads(out)
        assert "custom" in report["erasure"]["dr_table"]

    @pytest.mark.parametrize("content", [
        '{"a": 1}', '[[1, {"b": 2}]]',
        # bools and numeric strings are not numbers, even beside numbers
        "[[true, false, false, false, false, false, false]]",
        "[[true, 0.5, 0, 0, 0, 0, 0]]",
        '[["0.5", 0, 0, 0, 0, 0, 0]]',
    ])
    def test_dr_table_malformed_shifts_file(self, tmp_path, content):
        shifts = tmp_path / "shifts.json"
        shifts.write_text(content)
        code, out, err = run_cli([
            "dr-table", fixture_path("figure2"), "--max-r", "1", "--shifts-file", shifts,
        ])
        assert code == 1 and out == "" and "shifts file must hold a matrix of numbers" in err

    @pytest.mark.parametrize("first", ["1e400", "1" + "0" * 400], ids=["float", "integer"])
    def test_dr_table_shifts_beyond_float_range(self, tmp_path, first):
        # JSON reads 1e400 as inf and a 400-digit integer as an int that no
        # float holds: both are unusable input, not a numerical failure
        shifts = tmp_path / "shifts.json"
        shifts.write_text(f"[[{first}, 0, 0, 0, 0], [0, 0, 0, 0, 0]]")
        code, out, err = run_cli([
            "dr-table", fixture_path("figure1"), "--max-r", "1", "--shifts-file", shifts,
        ])
        assert code == 1 and out == "" and "shift entries must be finite" in err

    def test_dr_table_large_shift_is_a_dual(self, tmp_path):
        # the rounding of sum h_i f_i^T grows with |h_i|·|f_i|, so the duality
        # check scales with the dual's D^1: a shift of 1e8 is a valid dual
        shifts = tmp_path / "shifts.json"
        shifts.write_text("[[1e8, 0, 0, 0, 0], [0, 0, 0, 0, 0]]")
        code, out, err = run_cli(["dr-table", fixture_path("figure1"), "--shifts-file", shifts])
        assert code == 0, err
        rows = json.loads(out)["erasure"]["dr_table"]["custom"]
        assert [row["r"] for row in rows] == [1, 2, 3]
        assert all(math.isfinite(row["value"]) and row["value"] > 1e7 for row in rows)

    def test_dr_table_overflowing_shift(self, tmp_path):
        shifts = tmp_path / "shifts.json"
        shifts.write_text("[[1e308, 0, 0, 0, 0], [0, 0, 0, 0, 0]]")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(["dr-table", fixture_path("figure1"), "--shifts-file", shifts])
        assert code == 1 and out == "" and "products |f_i| * |h_i| must not overflow" in err
        assert caught == []

    def test_graph_info_content(self):
        _, out, _ = run_cli(["graph-info", fixture_path("figure2")])
        graph = json.loads(out)["graph"]
        assert graph["regular"] == 3
        assert graph["walk_regular"]["is_walk_regular"] is False
        assert graph["walk_regular"]["first_violation"]["power"] == 3
        assert set(graph["walk_regular"]) == {
            "is_walk_regular", "distinct_nonzero_eigenvalues", "first_violation"}

    def test_od_verdict_past_the_census_range(self, tmp_path):
        # C60(1..5) plus a path: the census of the circulant overflows int64 at
        # power 21, but constancy decides the verdict without a census
        circulant = {(i, (i + j) % 60) for i in range(60) for j in range(1, 6)}
        g = Graph(63, frozenset((min(e), max(e)) for e in circulant | {(60, 61), (61, 62)}))
        path = tmp_path / "c60_p3.edges"
        path.write_text(edge_list_text(g))
        code, out, err = run_cli(["od-verdict", path])
        assert code == 0, err
        erasure = json.loads(out)["erasure"]
        assert erasure["verdict"] == "OD_1_ERASURE"
        assert erasure["verdict_basis"]["certificate"] == "constant_component_attains_max"
        assert erasure["verdict_basis"]["component"] == 0

    def test_od_search_improves_where_no_certificate_applies(self, tmp_path):
        # C4∘K1 plus P6: P6's non-constant products attain the maximum
        g = Graph(14, c4_corona().edges | {(8 + i, 9 + i) for i in range(5)})
        path = tmp_path / "c4_corona_p6.edges"
        path.write_text(edge_list_text(g))
        code, out, _ = run_cli(["od-search", path])
        assert code == 0
        erasure = json.loads(out)["erasure"]
        assert erasure["verdict"] == "INCONCLUSIVE"
        assert erasure["verdict_basis"] == {"certificate": "none"}
        assert erasure["search_best"]["improved"] is True

    def test_witness_vertices_are_file_labels(self):
        # the NOT_OD witness is the argmax set, in the report's 1-based labels
        _, out, _ = run_cli(["od-verdict", fixture_path("figure2")])
        erasure = json.loads(out)["erasure"]
        assert erasure["verdict"] == "NOT_OD"
        assert erasure["verdict_basis"]["witness_vertices"] == erasure["lambda1_set"] == [2, 5, 7, 8]

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
        _, out, _ = run_cli(["dr-table", fixture_path("k3"), "--seed", "5", "--max-r", "1"])
        config = json.loads(out)["config"]
        assert config["seed"] == 5
        assert config["max_r"] == 1
        assert "zero_tol" not in config
        assert "tie_tol" not in config and "group_tol" not in config

    @pytest.mark.parametrize("command", COMMANDS)
    def test_config_keys_of_default_run(self, command):
        code, out, _ = run_cli([command, fixture_path("figure2")])
        assert code == 0
        expected = [CONFIG_KEYS[flag] for flag in OPTIONS[command] if flag not in NO_DEFAULT]
        assert sorted(json.loads(out)["config"]) == sorted(expected)

    def test_config_records_shifts_file(self, tmp_path):
        shifts = tmp_path / "shifts.json"
        shifts.write_text("[[0.001, -0.001, 0, 0, 0, 0, 0]]")
        code, out, _ = run_cli([
            "dr-table", fixture_path("figure2"), "--max-r", "1", "--shifts-file", shifts,
            "--mc-samples", "5",
        ])
        assert code == 0
        config = json.loads(out)["config"]
        assert config["shifts_file"] == str(shifts)
        assert list(config) == [
            "seed", "emit_vectors", "output_format", "max_r", "shifts_file", "mc_samples"]

    def test_floats_have_at_most_12_significant_digits(self):
        _, out, _ = run_cli(["od-verdict", fixture_path("figure2")])
        for token in out.replace(",", " ").replace("]", " ").replace("[", " ").split():
            try:
                float(token)
            except ValueError:
                continue
            digits = token.lstrip("-").replace(".", "").split("e")[0].lstrip("0")
            assert len(digits) <= 12, token


class TestRenderJson:
    def test_scalars_in_lists_and_dicts(self):
        report = {"flags": [True, False], "ints": [1, np.int64(-2)],
                  "floats": [0.1, np.float64(1 / 3), 2.0, -0.0, 1e300],
                  "names": ["a", "b\"c", np.str_("d")],
                  "nested": [[1, 2.5], {"x": True}], "empty": []}
        assert render_json(report) == "\n".join([
            "{",
            '  "flags": [true, false],',
            '  "ints": [1, -2],',
            '  "floats": [0.1, 0.333333333333, 2, -0, 1e+300],',
            '  "names": ["a", "b\\"c", "d"],',
            '  "nested": [',
            "    [1, 2.5],",
            "    {",
            '      "x": true',
            "    }",
            "  ],",
            '  "empty": []',
            "}",
        ])

    @pytest.mark.parametrize("value", [float("nan"), np.float64("inf"), -math.inf])
    def test_non_finite_floats_rejected(self, value):
        for obj in (value, [1.0, value], {"x": value}):
            with pytest.raises(ValueError, match="cannot serialize non-finite float"):
                render_json(obj)

    def test_none_and_unknown_types_rejected(self):
        for obj in (None, [1, None], {"x": None}):
            with pytest.raises(ValueError, match="reports omit absent values"):
                render_json(obj)
        for obj in (object(), [1, {1j}], {"x": 1j}):
            with pytest.raises(TypeError, match="cannot serialize (object|set|complex)"):
                render_json(obj)


class TestVerdictNeverSearches:
    @pytest.fixture(autouse=True)
    def forbid_search(self, monkeypatch):
        import gframes.cli as cli_module
        import gframes.erasure as erasure_module

        def refuse(*args, **kwargs):
            raise AssertionError("od-verdict searched the dual family")

        monkeypatch.setattr(cli_module, "perturbation_search", refuse)
        monkeypatch.setattr(erasure_module, "perturbation_search", refuse)

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_fixtures(self, name):
        code, out, _ = run_cli(["od-verdict", fixture_path(name)])
        assert code == 0
        assert "search_best" not in json.loads(out)["erasure"]

    def test_inconclusive_graph(self, tmp_path):
        # cubic8 plus P3: no certificate applies, and still nothing searches
        g = Graph(11, cubic8().edges | {(8, 9), (9, 10)})
        path = tmp_path / "cubic8_p3.edges"
        path.write_text(edge_list_text(g))
        code, out, _ = run_cli(["od-verdict", path])
        assert code == 0
        erasure = json.loads(out)["erasure"]
        assert erasure["verdict"] == "INCONCLUSIVE" and "search_best" not in erasure
        code, out, _ = run_cli(["od-verdict", path, "--format", "text"])
        assert code == 0 and "search best" not in out

    def test_search_is_refused(self):
        # the patch bites: od-search does search
        with pytest.raises(AssertionError, match="searched"):
            run_cli(["od-search", fixture_path("k3")])


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
        first = run_cli([command, fixture_path(name)])
        second = run_cli([command, fixture_path(name)])
        assert first == second
        assert first[0] == 0


def run_cli_fresh(argv) -> tuple:
    """Invoke the CLI in a new interpreter; returns (exit_code, stdout)."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-m", "gframes.cli", *map(str, argv)], env=env,
                            capture_output=True, text=True, timeout=120)
    return result.returncode, result.stdout


class TestSharedParser:
    """The parser is built once per process; calls must not see each other."""

    def test_calls_in_one_process_match_fresh_processes(self):
        path = fixture_path("figure2")
        sequence = [
            ["od-search", path, "--no-such-flag"],
            ["--version"],
            ["od-search", path, "--emit-vectors"],
            ["od-search", path],
            ["dr-table", path, "--max-r", "2"],
        ]
        parser = _build_parser()
        results = []
        for argv in sequence:
            code, out, _ = run_cli(argv)
            results.append((code, out))
            assert _build_parser() is parser
        assert results[0] == (1, "")
        assert results[1][0] == 0 and results[1][1].startswith("gframes ")
        assert all(code == 0 for code, _ in results[1:])
        config = json.loads(results[3][1])["config"]
        assert config == {"emit_vectors": False, "output_format": "json"}
        assert results == [run_cli_fresh(argv) for argv in sequence]


class TestSparkCrossCheckWork:
    def test_same_rank_work_however_labels_interleave(self, monkeypatch, tmp_path):
        # a 6-cycle and a 6-vertex path, on contiguous labels and with the
        # cycle on {0, 7..11}; in the caller's vertex order the first
        # dependent 6-subset, {0, 7..11}, lies past the first rank chunk
        import gframes.frames as frames_module
        from gframes.linalg import numerical_rank

        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return numerical_rank(*args, **kwargs)

        monkeypatch.setattr(frames_module, "numerical_rank", counted)
        counts = []
        for first in ((0, 1, 2, 3, 4, 5), (0, 7, 8, 9, 10, 11)):
            second = sorted(set(range(12)) - set(first))
            edges = {(first[i], first[(i + 1) % 6]) for i in range(6)}
            edges |= {(second[i], second[i + 1]) for i in range(5)}
            g = Graph(12, frozenset((min(e), max(e)) for e in edges))
            path = tmp_path / f"split-{first[1]}.edges"
            path.write_text(edge_list_text(g))
            calls.clear()
            code, out, _ = run_cli(["frame-spark", path])
            assert code == 0
            assert json.loads(out)["spark"]["brute_force"] == 6
            counts.append(len(calls))
        assert counts[0] == counts[1]


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
