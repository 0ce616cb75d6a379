"""Steadiness check: two sets of untraced runs of each workload, judged by
the bounds in BENCHMARK.json.

Usage, from the root of the repository:

    python3 perfbench/steady.py --runs 10 [--workloads sweep spectra]

Each run uses the command and run length from BENCHMARK.json and its own
seed; the two sets use different seeds. For every end-to-end metric it
prints each set's median and quartiles and the spread (interquartile
distance over median), then whether the sets agree: every spread within the
metric's bound, the two medians apart by at most the bound (either way),
and the same share of failed operations in every run.
The raw results go to perfbench/out/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(bench: dict, workload: str, seed: int) -> dict:
    command = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


def summarize(values) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args(argv)

    results = {w: [[], []] for w in args.workloads}
    for s in range(2):
        for workload in args.workloads:
            for i in range(args.runs):
                result = run_once(bench, workload, 1000 * s + i + 1)
                results[workload][s].append(result)
                print(f"set {s + 1} {workload} seed {1000 * s + i + 1}: "
                      f"{result['wall_s']:.1f} s, correct {result['correct']}, "
                      f"failed {result['failed']}/{result['attempted']}", flush=True)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json").write_text(json.dumps(results))

    agree = True
    for workload, sets in results.items():
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        correct = all(r["correct"] for runs in sets for r in runs)
        print(f"\n{workload}: failed shares {sorted(shares)}, all correct {correct}")
        agree &= len(shares) == 1 and correct
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            medians = []
            for s, runs in enumerate(sets):
                median, q1, q3, spread = summarize([r["metrics"][name]["value"] for r in runs])
                medians.append(median)
                ok = spread <= bound
                agree &= ok
                print(f"  {name:12s} set {s + 1}: median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                      f"spread {spread:.3f} (bound {bound}) {'ok' if ok else 'TOO WIDE'}")
            worse = sign * (medians[1] - medians[0]) / medians[0]
            ok = abs(worse) <= bound
            agree &= ok
            print(f"  {name:12s} set 2 vs set 1: {worse:+.3f} worse "
                  f"{'ok' if ok else 'DRIFTED'}")
    print(f"\nsets agree within bounds: {agree}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
