"""Spans around calls into gframes' layers, recorded from outside the program.

:class:`Tracer` replaces each traced function with a timing wrapper in every
gframes module that holds it, including the modules that bound it with
``from ... import`` (``eigh_symmetric`` is bound in ``linalg``, ``frames``,
``walkreg`` and ``cli``). A call nested inside another traced call is
charged to its parent's inclusive time but not to its self time. A recursive
call of the function already innermost (``render_json`` recursing into
itself) runs unwrapped, so one top-level call is one span.

Spans stay in memory as ``(op, name, parent, start, end, child_s)`` tuples,
with ``parent`` the index of the enclosing span or -1 and ``child_s`` the
time spent in nested traced calls, and are written once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

#: Traced functions as ``module.function``.
FUNCTIONS = (
    "graphs.parse_edge_list",
    "linalg.eigh_symmetric",
    "linalg.spectral_norm",
    "linalg.numerical_rank",
    "walkreg.is_walk_regular",
    "walkreg.is_walk_regular_definition",
    "frames.build_lg_frame",
    "frames.spark",
    "frames.dual_family_member",
    "erasure.canonical_verdict",
    "erasure.perturbation_search",
    "erasure.d_r",
    "cli.build_report",
    "cli.render_json",
)

#: Work counters: metric name -> (prefix of the traced functions it counts,
#: count for one call from its arguments and result).
COUNTERS = {
    "linalg.eigh_symmetric.n3": ("linalg.eigh_symmetric", lambda args, result: len(args[0]) ** 3),
    "erasure.d_r.subsets": ("erasure.d_r", lambda args, result: math.comb(args[0].count, args[2])),
    "walkreg.powers": ("walkreg.", lambda args, result: len(result.checked_powers)),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.op = -1
        self._stack = []  # [span index, name, time spent in traced children]
        self._installed = []

    def install(self):
        """Wrap every traced function wherever a gframes module binds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "gframes" or name.startswith("gframes.")]
        for qualified in FUNCTIONS:
            module_name, func_name = qualified.split(".")
            original = getattr(sys.modules[f"gframes.{module_name}"], func_name)
            wrapper = self._wrap(qualified, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._installed.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in self._installed:
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, name, original):
        counters = [(metric, count) for metric, (prefix, count) in COUNTERS.items()
                    if name.startswith(prefix)]
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if stack and stack[-1][1] == name:
                return original(*args, **kwargs)
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [index, name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][2] += end - start
                spans[index] = (self.op, name, parent, start, end, frame[2])
            for metric, count in counters:
                counts[metric] += count(args, result)
            return result

        return traced

    def layer_metrics(self, passes: int) -> dict:
        """Per-pass calls, inclusive seconds and self seconds of each function,
        and the work counters."""
        totals = {name: [0, 0.0, 0.0] for name in FUNCTIONS}
        for _, name, _, start, end, child in self.spans:
            entry = totals[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child
        metrics = {}
        for name, (calls, inclusive, own) in totals.items():
            metrics[f"{name}.calls"] = (calls / passes, "count")
            metrics[f"{name}.s"] = (inclusive / passes, "s")
            metrics[f"{name}.self_s"] = (own / passes, "s")
        for metric, total in self.counts.items():
            metrics[metric] = (total / passes, "count")
        return metrics

    def write(self, path):
        """Write the spans as JSON lines: op, name, parent, start, end (seconds)."""
        with open(path, "w", encoding="utf-8") as out:
            for op, name, parent, start, end, _ in self.spans:
                out.write(json.dumps([op, name, parent, round(start, 7), round(end, 7)]) + "\n")
