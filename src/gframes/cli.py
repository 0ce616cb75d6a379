"""Command-line surface and report emission.

Six commands over an edge-list file: ``graph-info``, ``frame-build``,
``frame-spark``, ``od-verdict``, ``od-search``, and ``dr-table``. Reports
are emitted as JSON (the canonical machine format; see
:data:`REPORT_SCHEMA`), CSV with one row per vertex for per-vertex
quantities, or plain text. Output is byte-identical for identical input
and configuration: floats are serialized with 12 significant digits and
every enumeration or search is seeded and deterministic.

Vertex labels in reports are 1-based, matching the edge-list format.
Exit codes: 0 success, 1 unusable input, 2 numerical failure, 3
enumeration guard exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .exceptions import ConvergenceError, EdgeListError, EnumerationGuardError
from .graphs import degree_sequence, is_regular, laplacian_matrix, parse_edge_list
from .linalg import eigh_symmetric
from .walkreg import is_walk_regular, is_walk_regular_definition
from .frames import Frame, build_lg_frame, canonical_dual, dual_family_member, spark, spark_via_components
from .erasure import (
    SHIFT_FAMILY_NOTE,
    canonical_verdict,
    d1_fast,
    d_r,
    d_r_lower_bound,
    perturbation_search,
)

COMMANDS = ("graph-info", "frame-build", "frame-spark", "od-verdict", "od-search", "dr-table")

#: Largest exact subset enumeration a dr-table row may request.
DR_GUARD = 10**6

#: Published schema of the JSON report (draft-07). Sections that do not
#: apply to a command are omitted entirely, never null.
REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["tool_version", "command", "input", "config"],
    "additionalProperties": False,
    "properties": {
        "tool_version": {"type": "string"},
        "command": {"enum": list(COMMANDS)},
        "input": {"type": "string"},
        "config": {"type": "object"},
        "graph": {
            "type": "object",
            "required": ["n", "m", "components", "degrees"],
            "properties": {
                "n": {"type": "integer"},
                "m": {"type": "integer"},
                "components": {"type": "array", "items": {"type": "array", "items": {"type": "integer"}}},
                "degrees": {"type": "array", "items": {"type": "integer"}},
                "regular": {"type": ["integer", "boolean"]},
                "laplacian_spectrum": {"type": "array", "items": {"type": "number"}},
                "walk_regular": {
                    "type": "object",
                    "required": ["is_walk_regular", "distinct_nonzero_eigenvalues"],
                    "properties": {
                        "is_walk_regular": {"type": "boolean"},
                        "distinct_nonzero_eigenvalues": {"type": "integer"},
                        "first_violation": {
                            "type": "object",
                            "properties": {
                                "power": {"type": "integer"},
                                "vertices": {"type": "array", "items": {"type": "integer"}},
                            },
                        },
                        "definition_check_power": {"type": "integer"},
                        "definition_check_agrees": {"type": "boolean"},
                    },
                },
            },
        },
        "frame": {
            "type": "object",
            "required": ["dim", "count", "gramian_residual", "frame_operator_diag", "norms_squared"],
            "properties": {
                "dim": {"type": "integer"},
                "count": {"type": "integer"},
                "gramian_residual": {"type": "number"},
                "frame_operator_diag": {"type": "array", "items": {"type": "number"}},
                "norms_squared": {"type": "array", "items": {"type": "number"}},
                "vectors": {"type": "array", "items": {"type": "array", "items": {"type": "number"}}},
                "basis_dependent": {"type": "boolean"},
            },
        },
        "spark": {
            "type": "object",
            "required": ["value", "full_spark"],
            "properties": {
                "value": {"type": "integer"},
                "full_spark": {"type": "boolean"},
                "method_agreement": {"type": "boolean"},
                "brute_force": {"type": ["integer", "string"]},
                "component_minimum": {"type": "integer"},
            },
        },
        "erasure": {
            "type": "object",
            "properties": {
                "d1_canonical": {"type": "number"},
                "per_vertex_products": {"type": "array", "items": {"type": "number"}},
                "lambda1_set": {"type": "array", "items": {"type": "integer"}},
                "constancy": {
                    "type": "object",
                    "required": ["is_constant", "spread"],
                    "properties": {
                        "is_constant": {"type": "boolean"},
                        "spread": {"type": "number"},
                    },
                },
                "verdict": {"enum": ["UNIQUE_OD_ALL_ERASURES", "OD_1_ERASURE", "NOT_OD", "INCONCLUSIVE"]},
                "verdict_basis": {"type": "object"},
                "search_best": {
                    "type": "object",
                    "required": ["d1", "improved", "shifts"],
                    "properties": {
                        "d1": {"type": "number"},
                        "improved": {"type": "boolean"},
                        "shifts": {"type": "array"},
                        "basis_dependent": {"type": "boolean"},
                        "family": {"type": "string"},
                    },
                },
                "dr_table": {
                    "type": "object",
                    "additionalProperties": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["r", "value"],
                            "properties": {
                                "r": {"type": "integer"},
                                "value": {"type": "number"},
                                "max_subset": {"type": "array", "items": {"type": "integer"}},
                                "lower_bound": {"type": "boolean"},
                                "samples": {"type": "integer"},
                            },
                        },
                    },
                },
            },
        },
    },
}


@dataclass
class AnalysisConfig:
    """Everything a run needs; mirrored verbatim into the report for
    reproducibility."""

    input_path: str
    command: str
    zero_tol: Optional[float] = None
    tie_tol: float = 1e-9
    group_tol: float = 1e-8
    seed: int = 0
    trials: int = 1000
    radius: float = 0.01
    emit_vectors: bool = False
    output_format: str = "json"
    max_r: int = 3
    shifts_file: Optional[str] = None
    mc_samples: Optional[int] = None

    def validate(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.output_format not in ("json", "csv", "text"):
            raise ValueError(f"unknown output format {self.output_format!r}")
        if self.zero_tol is not None and not self.zero_tol > 0:
            raise ValueError("zero-tol must be positive")
        for name in ("tie_tol", "group_tol", "radius"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name.replace('_', '-')} must be positive")
        for name in ("trials", "max_r"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name.replace('_', '-')} must be at least 1")
        if self.mc_samples is not None and self.mc_samples < 1:
            raise ValueError("mc-samples must be at least 1")


def _fmt_float(x) -> str:
    value = float(x)
    if not np.isfinite(value):
        raise ValueError(f"cannot serialize non-finite float {value!r}")
    return format(value, ".12g")


def render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered keys, floats at 12 significant
    digits, no locale or platform dependence."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(key))}: {render_json(value, indent + 1)}"
            for key, value in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        items = [render_json(value, indent + 1) for value in obj]
        flat = "[" + ", ".join(items) + "]"
        if "\n" not in flat and len(flat) + 2 * indent <= 100:
            return flat
        inner = ",\n".join(f"{pad}  {item}" for item in items)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        raise ValueError("reports omit absent values instead of serializing null")
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _graph_section(g, config: AnalysisConfig, with_walk: bool) -> dict:
    section = {
        "n": g.n,
        "m": g.m,
        "components": [[v + 1 for v in comp] for comp in g.components],
        "degrees": degree_sequence(g),
    }
    degree = is_regular(g)
    section["regular"] = degree if degree is not None else False
    if with_walk:
        spectrum = eigh_symmetric(laplacian_matrix(g), config.zero_tol)
        section["laplacian_spectrum"] = [float(v) for v in spectrum.eigenvalues]
        certified = is_walk_regular(g, config.group_tol)
        walk = {
            "is_walk_regular": certified.is_walk_regular,
            "distinct_nonzero_eigenvalues": certified.distinct_nonzero_eigenvalue_count,
        }
        if certified.first_violation is not None:
            power, (u, v) = certified.first_violation
            walk["first_violation"] = {"power": power, "vertices": [u + 1, v + 1]}
        try:
            definition = is_walk_regular_definition(g, g.n)
        except OverflowError:
            # informational cross-check only; the certified verdict stands
            pass
        else:
            walk["definition_check_power"] = g.n
            walk["definition_check_agrees"] = (
                definition.is_walk_regular == certified.is_walk_regular
            )
        section["walk_regular"] = walk
    return section


def _frame_section(bundle, config: AnalysisConfig) -> dict:
    frame = bundle.frame
    lap = laplacian_matrix(bundle.graph)
    section = {
        "dim": frame.dim,
        "count": frame.count,
        "gramian_residual": float(np.abs(frame.gramian - lap).max()),
        "frame_operator_diag": [float(v) for v in np.diag(frame.frame_operator)],
        "norms_squared": [float(v) for v in bundle.in_vertex_order(np.diag(frame.gramian))],
    }
    if config.emit_vectors:
        section["vectors"] = [[float(x) for x in frame.synthesis[:, bundle.column_of(v)]]
                              for v in range(frame.count)]
        section["basis_dependent"] = True
    return section


def _spark_section(bundle, g, config: AnalysisConfig) -> dict:
    component_minimum = spark_via_components(g)
    try:
        brute = spark(bundle.frame)
        return {
            "value": component_minimum,
            "full_spark": component_minimum == bundle.frame.dim + 1,
            "method_agreement": brute == component_minimum,
            "brute_force": brute,
            "component_minimum": component_minimum,
        }
    except EnumerationGuardError:
        return {
            "value": component_minimum,
            "full_spark": component_minimum == bundle.frame.dim + 1,
            "brute_force": "skipped (enumeration guard)",
            "component_minimum": component_minimum,
        }


def _erasure_section(report, config: AnalysisConfig, include_search: bool) -> dict:
    section = {
        "d1_canonical": report.d1_canonical,
        "per_vertex_products": [float(v) for v in report.per_vertex_products],
        "lambda1_set": [v + 1 for v in report.lambda1],
        "constancy": {"is_constant": report.constancy.is_constant, "spread": report.constancy.spread},
        "verdict": report.verdict,
        "verdict_basis": report.verdict_basis,
    }
    if include_search and report.search_best is not None:
        best = report.search_best
        section["search_best"] = {
            "d1": best.d1,
            "improved": best.improved,
            "shifts": [[float(x) for x in row] for row in best.shifts],
            "basis_dependent": True,
            "family": SHIFT_FAMILY_NOTE,
        }
    return section


def _load_shifts(bundle, config: AnalysisConfig):
    if config.shifts_file is None:
        return None
    raw = json.loads(Path(config.shifts_file).read_text(encoding="utf-8"))
    shifts = np.asarray(raw, dtype=float)
    return dual_family_member(bundle, shifts)


def _dr_rows(bundle, dual, config: AnalysisConfig) -> list:
    # Columns in vertex order, so subsets are enumerated, tie-broken and
    # reported in the caller's labels.
    order = list(bundle.relabeling)
    frame = Frame(bundle.frame.synthesis[:, order])
    h = dual.realized[:, order]
    n = frame.count
    r_values = range(1, min(config.max_r, n - 1) + 1)
    if config.mc_samples is None:
        worst = max((math.comb(n, r) for r in r_values), default=0)
        if worst > DR_GUARD:
            raise EnumerationGuardError(
                f"dr-table up to r={config.max_r} needs {worst} subsets in one row "
                f"(guard {DR_GUARD}); pass --mc-samples for sampled lower bounds"
            )
    rows = []
    for r in r_values:
        exact = True
        if math.comb(n, r) > DR_GUARD:
            value, subset = d_r_lower_bound(frame, h, r, config.mc_samples, config.seed)
            exact = False
        else:
            value, subset = d_r(frame, h, r, guard=DR_GUARD)
        row = {"r": r, "value": value, "max_subset": [v + 1 for v in subset]}
        if not exact:
            row["lower_bound"] = True
            row["samples"] = config.mc_samples
        rows.append(row)
    return rows


def build_report(config: AnalysisConfig) -> dict:
    """Run one command and assemble the report dictionary."""
    config.validate()
    text = Path(config.input_path).read_text(encoding="utf-8")
    g = parse_edge_list(text)
    echo = {
        "zero_tol": config.zero_tol if config.zero_tol is not None else "auto",
        "tie_tol": config.tie_tol,
        "group_tol": config.group_tol,
        "seed": config.seed,
        "trials": config.trials,
        "radius": config.radius,
        "emit_vectors": config.emit_vectors,
        "output_format": config.output_format,
    }
    if config.command == "dr-table":
        echo["max_r"] = config.max_r
        if config.mc_samples is not None:
            echo["mc_samples"] = config.mc_samples
    report = {
        "tool_version": __version__,
        "command": config.command,
        "input": config.input_path,
        "config": echo,
    }

    if config.command == "graph-info":
        report["graph"] = _graph_section(g, config, with_walk=True)
        return report

    report["graph"] = _graph_section(g, config, with_walk=False)
    bundle = build_lg_frame(g, config.zero_tol)
    report["frame"] = _frame_section(bundle, config)

    if config.command == "frame-build":
        return report
    if config.command == "frame-spark":
        report["spark"] = _spark_section(bundle, g, config)
        return report
    if config.command in ("od-verdict", "od-search"):
        verdict = canonical_verdict(
            bundle,
            trials=config.trials,
            radius=config.radius,
            seed=config.seed,
            tie_tol=config.tie_tol,
            group_tol=config.group_tol,
        )
        if config.command == "od-search" and verdict.search_best is None:
            search = perturbation_search(bundle, config.trials, config.radius, config.seed)
            verdict = replace(verdict, search_best=search)
        report["erasure"] = _erasure_section(verdict, config, include_search=True)
        return report

    # dr-table
    canonical = canonical_dual(bundle)
    table = {"canonical": _dr_rows(bundle, canonical, config)}
    custom = _load_shifts(bundle, config)
    if custom is not None:
        table["custom"] = _dr_rows(bundle, custom, config)
    d1_value, _ = d1_fast(bundle.frame, canonical)
    report["erasure"] = {"d1_canonical": d1_value, "dr_table": table}
    return report


def _render_csv(report: dict) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    graph = report.get("graph")
    erasure = report.get("erasure")
    frame = report.get("frame")
    if erasure is not None and "dr_table" in erasure:
        writer.writerow(["dual", "r", "value", "lower_bound", "max_subset"])
        for label, rows in erasure["dr_table"].items():
            for row in rows:
                writer.writerow([
                    label, row["r"], _fmt_float(row["value"]),
                    row.get("lower_bound", False),
                    " ".join(str(v) for v in row.get("max_subset", [])),
                ])
        return out.getvalue()
    if report.get("spark") is not None:
        s = report["spark"]
        writer.writerow(["spark", "full_spark", "brute_force", "component_minimum"])
        writer.writerow([s["value"], s["full_spark"], s.get("brute_force", ""), s["component_minimum"]])
        return out.getvalue()
    component_of = {}
    if graph is not None:
        for index, comp in enumerate(graph["components"]):
            for v in comp:
                component_of[v] = index
    if erasure is not None:
        writer.writerow(["vertex", "degree", "component", "norm_squared", "product", "in_lambda1"])
        lam = set(erasure["lambda1_set"])
        for v in range(1, graph["n"] + 1):
            writer.writerow([
                v, graph["degrees"][v - 1], component_of[v],
                _fmt_float(frame["norms_squared"][v - 1]),
                _fmt_float(erasure["per_vertex_products"][v - 1]),
                v in lam,
            ])
        return out.getvalue()
    if frame is not None:
        writer.writerow(["vertex", "degree", "component", "norm_squared"])
        for v in range(1, graph["n"] + 1):
            writer.writerow([v, graph["degrees"][v - 1], component_of[v],
                             _fmt_float(frame["norms_squared"][v - 1])])
        return out.getvalue()
    writer.writerow(["vertex", "degree", "component"])
    for v in range(1, graph["n"] + 1):
        writer.writerow([v, graph["degrees"][v - 1], component_of[v]])
    return out.getvalue()


def _render_text(report: dict) -> str:
    lines = [f"{report['command']} on {report['input']}"]
    graph = report.get("graph")
    if graph is not None:
        regular = graph["regular"]
        lines.append(f"graph: n={graph['n']} m={graph['m']} components={len(graph['components'])}"
                     f" regular={regular if regular is not False else 'no'}")
        walk = graph.get("walk_regular")
        if walk is not None:
            lines.append(f"walk_regular: {walk['is_walk_regular']}"
                         f" (distinct nonzero eigenvalues: {walk['distinct_nonzero_eigenvalues']})")
            violation = walk.get("first_violation")
            if violation is not None:
                lines.append(f"first violation: power {violation['power']}"
                             f" at vertices {violation['vertices']}")
        spectrum = graph.get("laplacian_spectrum")
        if spectrum is not None:
            lines.append("laplacian spectrum: " + " ".join(_fmt_float(v) for v in spectrum))
    frame = report.get("frame")
    if frame is not None:
        lines.append(f"frame: {frame['count']} vectors in dimension {frame['dim']},"
                     f" gramian residual {_fmt_float(frame['gramian_residual'])}")
        lines.append("frame operator diag: " + " ".join(_fmt_float(v) for v in frame["frame_operator_diag"]))
    sparks = report.get("spark")
    if sparks is not None:
        lines.append(f"spark: {sparks['value']} (full spark: {sparks['full_spark']},"
                     f" methods agree: {sparks.get('method_agreement', 'n/a')})")
    erasure = report.get("erasure")
    if erasure is not None and "verdict" in erasure:
        lines.append(f"d1 canonical: {_fmt_float(erasure['d1_canonical'])}")
        lines.append("products: " + " ".join(_fmt_float(v) for v in erasure["per_vertex_products"]))
        lines.append(f"lambda1 set: {erasure['lambda1_set']}")
        lines.append(f"constancy: {erasure['constancy']['is_constant']}"
                     f" (spread {_fmt_float(erasure['constancy']['spread'])})")
        lines.append(f"verdict: {erasure['verdict']} [{erasure['verdict_basis']['certificate']}]")
        best = erasure.get("search_best")
        if best is not None:
            lines.append(f"search best d1: {_fmt_float(best['d1'])} (improved: {best['improved']})")
    if erasure is not None and "dr_table" in erasure:
        for label, rows in erasure["dr_table"].items():
            for row in rows:
                bound = " (lower bound)" if row.get("lower_bound") else ""
                lines.append(f"D^{row['r']} [{label}]: {_fmt_float(row['value'])}{bound}"
                             f" at {row.get('max_subset')}")
    return "\n".join(lines) + "\n"


def run(config: AnalysisConfig, stream=None) -> int:
    """Execute a configured command, writing the report to ``stream``."""
    stream = stream if stream is not None else sys.stdout
    report = build_report(config)
    if config.output_format == "json":
        stream.write(render_json(report) + "\n")
    elif config.output_format == "csv":
        stream.write(_render_csv(report))
    else:
        stream.write(_render_text(report))
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="gframes",
                     description="Frames generated by graph Laplacians: spectra, spark, "
                                 "and erasure-optimality diagnostics.")
    parser.add_argument("--version", action="version", version=f"gframes {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    descriptions = {
        "graph-info": "components, degrees, regularity, walk-regularity, Laplacian spectrum",
        "frame-build": "build the frame and report its contract quantities",
        "frame-spark": "spark via brute force and the component-minimum formula",
        "od-verdict": "canonical-dual erasure diagnostics and optimality verdict",
        "od-search": "od-verdict plus a seeded search of the dual family",
        "dr-table": "worst-case erasure norms D^r for r = 1..R",
    }
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=descriptions[name])
        cmd.add_argument("input", help="edge-list file")
        cmd.add_argument("--format", choices=("json", "csv", "text"), default="json",
                         dest="output_format", help="output format (default json)")
        cmd.add_argument("--zero-tol", type=float, default=None,
                         help="eigenvalue zero threshold (default: 1e-9 * max(1, max |eig|))")
        cmd.add_argument("--tie-tol", type=float, default=1e-9,
                         help="relative tolerance for product ties (default 1e-9)")
        cmd.add_argument("--group-tol", type=float, default=1e-8,
                         help="relative tolerance for eigenvalue multiplicity grouping (default 1e-8)")
        cmd.add_argument("--seed", type=int, default=0, help="search/sampling seed (default 0)")
        cmd.add_argument("--trials", type=int, default=1000,
                         help="dual-family search trials (default 1000)")
        cmd.add_argument("--radius", type=float, default=0.01,
                         help="dual-family sampling radius (default 0.01)")
        cmd.add_argument("--emit-vectors", action="store_true",
                         help="include raw frame vectors (basis-dependent) in the frame section")
        if name == "dr-table":
            cmd.add_argument("--max-r", type=int, default=3, help="largest erasure size R (default 3)")
            cmd.add_argument("--shifts-file", default=None,
                             help="JSON file with one shift vector per component; adds a 'custom' dual")
            cmd.add_argument("--mc-samples", type=int, default=None,
                             help="Monte-Carlo sample count for rows whose enumeration exceeds the "
                                  "guard; values are lower bounds and labeled as such")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    config = AnalysisConfig(
        input_path=args.input,
        command=args.command,
        zero_tol=args.zero_tol,
        tie_tol=args.tie_tol,
        group_tol=args.group_tol,
        seed=args.seed,
        trials=args.trials,
        radius=args.radius,
        emit_vectors=args.emit_vectors,
        output_format=args.output_format,
        max_r=getattr(args, "max_r", 3),
        shifts_file=getattr(args, "shifts_file", None),
        mc_samples=getattr(args, "mc_samples", None),
    )
    try:
        return run(config)
    except EnumerationGuardError as exc:
        print(f"gframes: enumeration guard exceeded: {exc}", file=sys.stderr)
        return 3
    except (ConvergenceError, np.linalg.LinAlgError, ArithmeticError, RuntimeError) as exc:
        # ahead of ValueError, which LinAlgError subclasses
        print(f"gframes: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (EdgeListError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"gframes: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
