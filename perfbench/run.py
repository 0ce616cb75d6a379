"""Benchmark for gframes: one workload per run, timed end to end or traced by layer.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A run is a single-threaded closed loop with one caller. It generates the
workload's corpus from ``--seed``, computes numpy references for every
input, calls ``gframes.cli.main`` in-process (stdout and stderr captured)
for one untimed warm-up pass, then for whole passes over the corpus for
about ``--seconds`` (two passes at least), and checks every output. The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the end-to-end metrics with ``--trace 0`` and
the per-layer metrics with ``--trace 1``. ``--workload all`` runs every workload, untraced and traced,
each in its own process, and prints the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: op_tail_s is this nearest-rank percentile of successful-operation
#: latency: the highest, in steps of five, with at least ten samples beyond
#: it in a run of MIN_PASSES passes (2 x 56, 2 x 39 and 2 x 28 successful
#: operations). A run measures whole passes until it has ten beyond it.
TAIL_Q = {"sweep": 0.9, "spectra": 0.85, "erasures": 0.8}
TAIL_SAMPLES = 10
#: The machine's speed swings over tens of seconds; two passes at least
#: spread each operation's samples over two stretches of time.
MIN_PASSES = 2
SETUP_REPEATS = 5
#: The one fault an expected failure may show: the walk census overflowing
#: int64 in ``linalg._exact_power_diagonals``. Any other exit 2 is a problem.
EXPECTED_FAULT = "integer matrix power overflows 64-bit range"

_IMPORT_PROBE = ("import time; t = time.perf_counter(); import gframes.cli; "
                 "print(time.perf_counter() - t)")


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k, "unset")
                    for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def measure_setup() -> list:
    """Times to ``import gframes.cli`` in fresh interpreters; one discarded
    import first, so byte-code compilation and a cold file cache are not
    counted."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p))
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times[1:]


def speed_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the machine runs at
    the moment, printed with the facts to help read the spread between runs."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        sum(i * i % 7 for i in range(100_000))
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Runner:
    def __init__(self, workload: str, seed: int, directory: Path):
        import corpus
        import gframes.cli
        import reference

        self.cli = gframes.cli
        self.cases = corpus.WORKLOADS[workload](seed)
        self.ops = corpus.operations(self.cases)
        self.paths = {case.name: str(corpus.write_case(case, directory)) for case in self.cases}
        self.refs = {case.name: reference.Reference(case) for case in self.cases}
        self.check = reference.check
        self.outputs = [dict() for _ in self.ops]  # distinct (code, stdout) -> problems
        self.tracer = None
        self.deviation = 0.0

    def call(self, index: int):
        op = self.ops[index]
        argv = [op.command, self.paths[op.case.name], *op.extra]
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.op = index
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except Exception:  # a crash is a failed operation, reported with its traceback
            code, text = -1, traceback.format_exc()
        else:
            text = out.getvalue() if code == 0 else err.getvalue()
        elapsed = time.perf_counter() - start
        return code, text, elapsed

    def run_pass(self) -> list:
        return [self.call(i) for i in range(len(self.ops))]

    def problems(self, index: int, code: int, text: str) -> list:
        """Check one distinct output; an expected failure (exit 2 with the
        census overflow message, on a named input) has no problems but still
        counts as a failed operation."""
        seen = self.outputs[index]
        if seen.get((code, text)) is None:
            op = self.ops[index]
            if code == 0:
                try:
                    checker = self.check(op, json.loads(text), self.refs[op.case.name])
                except (ValueError, KeyError, TypeError) as exc:
                    seen[(code, text)] = [f"unreadable report: {exc!r}"]
                else:
                    seen[(code, text)] = checker.problems
                    self.deviation = max(self.deviation, checker.deviation)
            elif op.expect_fail and code == 2 and EXPECTED_FAULT in text:
                seen[(code, text)] = []
            else:
                seen[(code, text)] = [f"exit {code}: {text.strip()[-300:]}"]
        return seen[(code, text)]


def run_workload(args) -> int:
    if not (SRC / "gframes" / "cli.py").is_file():
        print(f"gframes sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Set-up is timed in two batches, before the warm-up and after the
    # measured passes, so that one slow stretch of the machine does not set it.
    setup_times = [] if args.trace else measure_setup()
    OUT.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"inputs-{args.workload}-", dir=OUT))
    try:
        runner = Runner(args.workload, args.seed, directory)
        probe_before = speed_probe_ms()
        start = time.perf_counter()
        warm = runner.run_pass()
        warm_s = time.perf_counter() - start
        ok_per_pass = sum(1 for code, _, _ in warm if code == 0)
        if ok_per_pass == 0:
            print("no operation of the warm-up pass succeeded", file=sys.stderr)
            return 1
        tail_q = TAIL_Q[args.workload]
        passes = max(MIN_PASSES, round(args.seconds / warm_s))
        while passes * ok_per_pass - math.ceil(tail_q * passes * ok_per_pass) < TAIL_SAMPLES:
            passes += 1
        if args.trace:
            import tracing

            runner.tracer = tracing.Tracer()
            runner.tracer.install()
        calls = []
        start, cpu_start = time.perf_counter(), time.process_time()
        for _ in range(passes):
            calls.extend(runner.run_pass())
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        probe_after = speed_probe_ms()
        if not args.trace:
            setup_times += measure_setup()
        if runner.tracer is not None:
            runner.tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    latencies, failed, unexpected = [], 0, []
    for index, (code, text, elapsed) in enumerate(warm + calls):
        op_index = index % len(runner.ops)
        problems = runner.problems(op_index, code, text)
        op = runner.ops[op_index]
        unexpected.extend(f"{op.case.name} {op.command}: {p}" for p in problems)
        if index < len(warm):
            continue
        if code == 0 and not problems:
            latencies.append(elapsed)
        else:
            failed += 1
    for line in sorted(set(unexpected)):
        print(f"CHECK FAILED {line}", file=sys.stderr)

    if args.trace:
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        runner.tracer.write(trace_path)
        metrics = runner.tracer.layer_metrics(passes)
        metrics["trace.ops_per_s"] = (len(latencies) / wall, "ops/s")
        metrics["trace.op_p50_s"] = (statistics.median(latencies), "s")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (len(latencies) / wall, "ops/s"),
            "op_p50_s": (statistics.median(latencies), "s"),
            "op_tail_s": (percentile(latencies, tail_q), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    facts = machine_facts()
    facts.update(workload=args.workload, seed=args.seed, passes=passes, ops_per_pass=len(runner.ops),
                 warmup_s=round(warm_s, 3), measured_s=round(wall, 3), measured_cpu_s=round(cpu, 3),
                 speed_probe_ms=[round(probe_before, 2), round(probe_after, 2)],
                 setup_import_s=[round(t, 4) for t in setup_times],
                 tail_percentile=tail_q, successful_ops=len(latencies),
                 max_reference_deviation=runner.deviation)
    print(json.dumps({"facts": facts}))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    import corpus

    summary = {}
    for workload in corpus.WORKLOADS:
        results = []
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                print(f"{workload} --trace {trace} exited {done.returncode}", file=sys.stderr)
                return done.returncode
            results.append(json.loads(done.stdout.strip().splitlines()[-1]))
        plain, traced = results
        print(f"{workload}: attempted {plain['attempted']}, failed {plain['failed']}, "
              f"correct {plain['correct'] and traced['correct']}")
        for result in results:
            for name, metric in result["metrics"].items():
                print(f"  {name:44s} {metric['value']:14.6g} {metric['unit']}")
        pm, tm = plain["metrics"], traced["metrics"]
        print(f"  tracing overhead: ops_per_s {tm['trace.ops_per_s']['value'] / pm['ops_per_s']['value'] - 1:+.1%}, "
              f"op_p50_s {tm['trace.op_p50_s']['value'] / pm['op_p50_s']['value'] - 1:+.1%}")
        summary[workload] = {"untraced": plain, "traced": traced}
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "spectra", "erasures", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
