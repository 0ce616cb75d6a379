"""Command-line surface and report emission.

Six commands over an edge-list file: ``graph-info``, ``frame-build``,
``frame-spark``, ``od-verdict`` (the verdict from certificates alone; it
never searches), ``od-search`` (the same report plus a steepest descent
over the dual family from the canonical dual), and ``dr-table``, each
taking only the options it reads; the report's ``config`` echoes them.
Reports are emitted as JSON (the canonical machine format; see
:data:`REPORT_SCHEMA`), CSV with one row per vertex for per-vertex
quantities, or plain text. Output is byte-identical for identical input
and options: floats are serialized with 12 significant digits, and the
search and the ``dr-table`` enumeration are deterministic.

Vertex labels in reports are 1-based, matching the edge-list format.
Exit codes: 0 success, 1 unusable input or options, 2 numerical failure or
an allocation beyond the available memory, 3 enumeration guard exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .exceptions import ConvergenceError, EdgeListError, EnumerationGuardError
from .graphs import degree_sequence, is_regular, laplacian_matrix, parse_edge_list
from .linalg import eigh_symmetric
from .walkreg import is_walk_regular
from .frames import (Frame, _reject_isolated_vertices, build_lg_frame, canonical_dual,
                     dual_family_member, spark, spark_via_components)
from .erasure import (
    DR_GUARD,
    SHIFT_FAMILY_NOTE,
    canonical_verdict,
    d1_fast,
    d_r,
    perturbation_search,
)

COMMANDS = ("graph-info", "frame-build", "frame-spark", "od-verdict", "od-search", "dr-table")

#: Options echoed into the report's ``config``, in order, when the command
#: takes them and they hold a value.
_ECHOED = ("emit_vectors", "output_format", "max_r", "shifts_file")

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
                            "required": ["r", "value", "max_subset"],
                            "properties": {
                                "r": {"type": "integer"},
                                "value": {"type": "number"},
                                "max_subset": {"type": "array", "items": {"type": "integer"}},
                            },
                        },
                    },
                },
            },
        },
    },
}


def _fmt_float(x) -> str:
    value = float(x)
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite float {value!r}")
    return format(value, ".12g")


#: Renderers of the built-in scalars that fill reports, keyed by exact type;
#: numpy scalars, which subclass none of these or only some, reach the
#: isinstance branches of render_json.
_SCALARS = {bool: lambda v: "true" if v else "false", int: str, float: _fmt_float, str: json.dumps}


def render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered keys, floats at 12 significant
    digits, no locale or platform dependence."""
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
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
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        raise ValueError("reports omit absent values instead of serializing null")
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _graph_section(g, with_walk: bool) -> dict:
    section = {
        "n": g.n,
        "m": g.m,
        "components": [[v + 1 for v in comp] for comp in g.components],
        "degrees": degree_sequence(g),
    }
    degree = is_regular(g)
    section["regular"] = degree if degree is not None else False
    if with_walk:
        spectrum = eigh_symmetric(laplacian_matrix(g))
        section["laplacian_spectrum"] = [float(v) for v in spectrum.eigenvalues]
        certified = is_walk_regular(g, spectrum.eigenvalues)
        walk = {
            "is_walk_regular": certified.is_walk_regular,
            "distinct_nonzero_eigenvalues": certified.distinct_nonzero_eigenvalue_count,
        }
        if certified.first_violation is not None:
            power, (u, v) = certified.first_violation
            walk["first_violation"] = {"power": power, "vertices": [u + 1, v + 1]}
        section["walk_regular"] = walk
    return section


def _frame_section(bundle, emit_vectors: bool) -> dict:
    frame = bundle.frame
    section = {
        "dim": frame.dim,
        "count": frame.count,
        "gramian_residual": bundle.gramian_residual,
        "frame_operator_diag": [float(v) for v in np.diag(frame.frame_operator)],
        "norms_squared": [float(v) for v in np.diag(frame.gramian)],
    }
    if emit_vectors:
        section["vectors"] = [[float(x) for x in column] for column in frame.synthesis.T]
        section["basis_dependent"] = True
    return section


def _spark_section(bundle, g) -> dict:
    component_minimum = spark_via_components(g)
    section = {"value": component_minimum, "full_spark": component_minimum == bundle.frame.dim + 1}
    # columns in component order, the order in which build_lg_frame
    # eigensolves the Laplacian: the spark is a size, which no order
    # changes, and in this order the enumeration does the same work however
    # the components' labels interleave
    order = [v for comp in g.components for v in comp]
    try:
        brute = spark(Frame(np.take(bundle.frame.synthesis, order, axis=1)))
    except EnumerationGuardError:
        section["brute_force"] = "skipped (enumeration guard)"
    else:
        section["method_agreement"] = brute == component_minimum
        section["brute_force"] = brute
    section["component_minimum"] = component_minimum
    return section


def _erasure_section(report, search=None) -> dict:
    basis = dict(report.verdict_basis)
    if "witness_vertices" in basis:
        basis["witness_vertices"] = [v + 1 for v in basis["witness_vertices"]]
    section = {
        "d1_canonical": report.d1_canonical,
        "per_vertex_products": [float(v) for v in report.per_vertex_products],
        "lambda1_set": [v + 1 for v in report.lambda1],
        "constancy": {"is_constant": report.constancy.is_constant, "spread": report.constancy.spread},
        "verdict": report.verdict,
        "verdict_basis": basis,
    }
    if search is not None:
        section["search_best"] = {
            "d1": search.d1,
            "improved": search.improved,
            "shifts": [[float(x) for x in row] for row in search.shifts],
            "basis_dependent": True,
            "family": SHIFT_FAMILY_NOTE,
        }
    return section


def _numbers_only(node) -> bool:
    """Whether every leaf of a parsed JSON value is a number (``bool`` and
    numeric strings excluded)."""
    if isinstance(node, list):
        return all(_numbers_only(item) for item in node)
    return type(node) in (int, float)


def _load_shifts(bundle, path: str):
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        numbers = _numbers_only(raw)
    except RecursionError:  # lists nested far deeper than a matrix's two levels
        numbers = False
    if not numbers:
        raise ValueError("shifts file must hold a matrix of numbers")
    return dual_family_member(bundle, raw)


def _dr_rows(frame, dual, max_r: int) -> list:
    """One exact ``D^r`` row per r = 1..max_r (at most n − 1); refuses the
    whole table before any row when one row would exceed ``DR_GUARD``."""
    n = frame.count
    r_values = range(1, min(max_r, n - 1) + 1)
    worst = max((math.comb(n, r) for r in r_values), default=0)
    if worst > DR_GUARD:
        raise EnumerationGuardError(
            f"dr-table up to r={max_r} needs {worst} subsets in one row (guard {DR_GUARD})")
    rows = []
    for r in r_values:
        value, subset = d_r(frame, dual, r)  # positional: traces read r as args[2]
        rows.append({"r": r, "value": value, "max_subset": [v + 1 for v in subset]})
    return rows


def build_report(args: argparse.Namespace) -> dict:
    """Run one parsed command (see :func:`_build_parser`) and assemble the
    report dictionary."""
    text = Path(args.input).read_text(encoding="utf-8")
    g = parse_edge_list(text)
    report = {
        "tool_version": __version__,
        "command": args.command,
        "input": args.input,
        "config": {key: getattr(args, key) for key in _ECHOED if getattr(args, key, None) is not None},
    }

    if args.command == "graph-info":
        report["graph"] = _graph_section(g, with_walk=True)
        return report

    report["graph"] = _graph_section(g, with_walk=False)
    _reject_isolated_vertices(g, first_label=1)
    bundle = build_lg_frame(g)
    report["frame"] = _frame_section(bundle, args.emit_vectors)

    if args.command == "frame-build":
        return report
    if args.command == "frame-spark":
        report["spark"] = _spark_section(bundle, g)
        return report
    if args.command in ("od-verdict", "od-search"):
        search = None
        if args.command == "od-search":
            search = perturbation_search(bundle)
        report["erasure"] = _erasure_section(canonical_verdict(bundle), search)
        return report

    # dr-table; a shifts file is checked before any row is computed
    duals = {"canonical": canonical_dual(bundle)}
    if args.shifts_file is not None:
        duals["custom"] = _load_shifts(bundle, args.shifts_file)
    table = {label: _dr_rows(bundle.frame, dual, args.max_r) for label, dual in duals.items()}
    d1_value, _ = d1_fast(bundle.frame, duals["canonical"])
    report["erasure"] = {"d1_canonical": d1_value, "dr_table": table}
    return report


def _render_csv(report: dict) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    graph = report.get("graph")
    erasure = report.get("erasure")
    frame = report.get("frame")
    if erasure is not None and "dr_table" in erasure:
        writer.writerow(["dual", "r", "value", "max_subset"])
        for label, rows in erasure["dr_table"].items():
            for row in rows:
                writer.writerow([label, row["r"], _fmt_float(row["value"]),
                                 " ".join(str(v) for v in row["max_subset"])])
        return out.getvalue()
    if report.get("spark") is not None:
        s = report["spark"]
        writer.writerow(["spark", "full_spark", "brute_force", "component_minimum"])
        writer.writerow([s["value"], s["full_spark"], s.get("brute_force", ""), s["component_minimum"]])
        return out.getvalue()
    component_of = {}
    for index, comp in enumerate(graph["components"]):
        for v in comp:
            component_of[v] = index
    header = ["vertex", "degree", "component"]
    if frame is not None:
        header.append("norm_squared")
    if erasure is not None:
        header += ["product", "in_lambda1"]
        lam = set(erasure["lambda1_set"])
    writer.writerow(header)
    for v in range(1, graph["n"] + 1):
        row = [v, graph["degrees"][v - 1], component_of[v]]
        if frame is not None:
            row.append(_fmt_float(frame["norms_squared"][v - 1]))
        if erasure is not None:
            row += [_fmt_float(erasure["per_vertex_products"][v - 1]), v in lam]
        writer.writerow(row)
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
                lines.append(f"D^{row['r']} [{label}]: {_fmt_float(row['value'])}"
                             f" at {row['max_subset']}")
    return "\n".join(lines) + "\n"


def run(args: argparse.Namespace, stream=None) -> int:
    """Execute a parsed command, writing the report to ``stream``."""
    stream = stream if stream is not None else sys.stdout
    report = build_report(args)
    if args.output_format == "json":
        stream.write(render_json(report) + "\n")
    elif args.output_format == "csv":
        stream.write(_render_csv(report))
    else:
        stream.write(_render_text(report))
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _at_least_one(text: str) -> int:
    """``--max-r``'s argparse ``type``: an int of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


@functools.cache
def _build_parser() -> _Parser:
    """One subparser per command, each taking only the options it reads.

    Built once per process and only read afterwards: ``parse_args`` returns
    a fresh namespace on every call, and the parser looks up
    ``sys.stdout``/``sys.stderr`` only when it prints.
    """
    parser = _Parser(prog="gframes",
                     description="Frames generated by graph Laplacians: spectra, spark, "
                                 "and erasure-optimality diagnostics.")
    parser.add_argument("--version", action="version", version=f"gframes {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    descriptions = {
        "graph-info": "components, degrees, regularity, walk-regularity, Laplacian spectrum",
        "frame-build": "build the frame and report its contract quantities",
        "frame-spark": "spark via brute force and the component-minimum formula",
        "od-verdict": "canonical-dual erasure diagnostics and optimality verdict (no search)",
        "od-search": "od-verdict plus a steepest-descent search of the dual family",
        "dr-table": "worst-case erasure norms D^r for r = 1..R",
    }
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=descriptions[name])
        cmd.add_argument("input", help="edge-list file")
        cmd.add_argument("--format", choices=("json", "csv", "text"), default="json",
                         dest="output_format", help="output format (default json)")
        if name == "graph-info":
            continue
        cmd.add_argument("--emit-vectors", action="store_true",
                         help="include raw frame vectors (basis-dependent) in the frame section")
        if name == "dr-table":
            cmd.add_argument("--max-r", type=_at_least_one, default=3,
                             help="largest erasure size R (default 3)")
            cmd.add_argument("--shifts-file", default=None,
                             help="JSON file with one shift vector per component; adds a 'custom' dual")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return run(args)
    except EnumerationGuardError as exc:
        print(f"gframes: enumeration guard exceeded: {exc}", file=sys.stderr)
        return 3
    except (ConvergenceError, np.linalg.LinAlgError, ArithmeticError, RuntimeError) as exc:
        # ahead of ValueError, which LinAlgError subclasses
        print(f"gframes: numerical failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's message names the array's size, shape and type
        print(f"gframes: out of memory: {exc}", file=sys.stderr)
        return 2
    except (EdgeListError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"gframes: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
