#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

  python3 perfbench/stability.py --workload scan --seeds 1-10 [--seconds 10]

Runs the benchmark once per seed, then prints for each end-to-end metric
its median, quartiles, and spread — the distance between the first and
third quartile (statistics.quantiles(values, n=4)) as a share of the
median — next to the metric's bound in BENCHMARK.json. A metric is steady
when its spread is well below its bound (a third of it is the target).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def quartile_spread(values):
    """(q1, median, q3, (q3 - q1) / median) of at least two values."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def selftest():
    ok = True
    cases = [
        ([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], (2.75, 5.5, 8.25, 1.0)),
        ([10, 10, 10, 10], (10, 10, 10, 0.0)),
        ([4, 1, 3, 2], (1.25, 2.5, 3.75, 1.0)),
    ]
    for values, want in cases:
        got = quartile_spread(values)
        if any(abs(g - w) > 1e-12 for g, w in zip(got, want)):
            print("FAIL: quartile_spread(%r) = %r, want %r" %
                  (values, got, want), file=sys.stderr)
            ok = False
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    key = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[key]}
    values = {name: [] for name in bounds}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL)
        lines = proc.stdout.decode().strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not result.get("correct"):
            print("seed %d: FAILED (exit %d)" % (seed, proc.returncode))
            continue
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, result["metrics"][n]["value"]) for n in values)))
        sys.stdout.flush()

    print("%-40s %14s %14s %14s %8s %6s" %
          ("metric", "q1", "median", "q3", "spread", "bound"))
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, q2, q3, spread = quartile_spread(vals)
        bound = bounds[name]
        print("%-40s %14.6g %14.6g %14.6g %8.4f %6s" %
              (name, q1, q2, q3, spread, "-" if bound is None else bound))
    return 0


if __name__ == "__main__":
    sys.exit(main())
