#!/usr/bin/env python3
"""Build and run the LittleTable end-to-end benchmark.

Run from the root of a LittleTable checkout:

  python3 perfbench/run.py --workload ingest --seed 1 --seconds 15 --trace 0
  python3 perfbench/run.py --list-metrics     # every metric, unit, meaning
  python3 perfbench/run.py --selftest         # the benchmark's own tests

The first call builds perfbench/ (its own CMake package, compiling the
engine from ../src) into $CARGO_TARGET_DIR, or .bench_build when unset.
The last line of stdout is the run's result JSON; the line before it is
the run record (configuration, workload shape, every metric with its unit
and sample count). A readable table goes to stderr.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds the benchmark; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no LittleTable sources at %s/src; run from a checkout" % ROOT)
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    ninja = shutil.which("ninja")
    log = sys.stderr
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if ninja:
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=log, stderr=log) != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 2)
    cmd = ["cmake", "--build", out, "-j", jobs, "--target", "ltbench",
           "ltbench_selftest"]
    if subprocess.call(cmd, stdout=log, stderr=log) != 0:
        fail("build failed")
    return out


def source_rev():
    """The git revision, or a digest of src/ when not in a git checkout."""
    try:
        top, rev = subprocess.check_output(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            stderr=subprocess.DEVNULL).decode().split()
        if os.path.realpath(top) == os.path.realpath(ROOT):
            return rev
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for f in sorted(files):
            p = os.path.join(base, f)
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as fh:
                h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def catalog_matches_spec(exe):
    """BENCHMARK.json names the metrics ltbench prints, with their units.

    `ltbench --list-metrics` is the one source of metric names and units:
    the end-to-end metrics it marks "result" must be BENCHMARK.json's
    end_to_end list, and its per-layer metrics its per_layer list.
    """
    listing = subprocess.check_output([exe, "--list-metrics"]).decode()
    printed = {"end_to_end": set(), "per_layer": set()}
    section = None
    for line in listing.splitlines():
        if line.startswith("# end-to-end"):
            section = "end_to_end"
        elif line.startswith("# per-layer"):
            section = "per_layer"
        elif line.strip() and section:
            name, unit, where = line.split(None, 3)[:3]
            if where == "result":
                printed[section].add((name, unit))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for key, got in printed.items():
        want = {(m["name"], m["unit"]) for m in spec[key]}
        if got != want:
            print("FAIL: BENCHMARK.json %s differs from ltbench "
                  "--list-metrics: only in BENCHMARK.json %s, only printed %s"
                  % (key, sorted(want - got), sorted(got - want)),
                  file=sys.stderr)
            ok = False
    return ok


def run_selftest(out):
    """C++ self-tests, the JSON round trip checked with a real parser, and
    the metric names and units against BENCHMARK.json."""
    proc = subprocess.run([os.path.join(out, "ltbench_selftest")],
                          stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.decode().splitlines()
    ok = proc.returncode == 0
    result = None
    expect = {}
    for line in lines:
        if line.startswith("ROUNDTRIP "):
            result = json.loads(line[len("ROUNDTRIP "):])
        elif line.startswith("EXPECT "):
            _, name, value, unit = line.split(" ")
            expect[name] = (float(value), unit)
    if result is None or set(result) != {"correct", "attempted", "failed",
                                         "metrics"}:
        print("FAIL: result line keys", file=sys.stderr)
        ok = False
    else:
        if (result["correct"] is not True or result["attempted"] != 1000 or
                result["failed"] != 3):
            print("FAIL: result line header values", file=sys.stderr)
            ok = False
        got = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
        if got != expect:
            print("FAIL: metrics changed in the round trip: %r != %r" %
                  (got, expect), file=sys.stderr)
            ok = False
    if not catalog_matches_spec(os.path.join(out, "ltbench")):
        ok = False
    sys.path.insert(0, BENCH_DIR)
    sys.dont_write_bytecode = True  # Leave nothing behind in the checkout.
    import stability  # noqa: E402  (lives beside this file)
    if not stability.selftest():
        ok = False
    print("selftest: %s" % ("ok" if ok else "FAILED"), file=sys.stderr)
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--list-metrics", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    out = build()
    exe = os.path.join(out, "ltbench")
    if args.selftest:
        return run_selftest(out)
    if args.list_metrics:
        return subprocess.call([exe, "--list-metrics"])
    if not args.workload:
        fail("--workload is required")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rev", source_rev()]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
