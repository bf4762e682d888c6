#!/usr/bin/env python3
"""Build and run cundef's benchmark (kccbench), then check its result.

Usage, from the repository root:

    python3 kccbench/run.py --workload search-deep|ci-corpus|serve-mixed \
        --seed N --seconds S --trace 0|1 [--tiny]

The first run configures and builds kccbench/CMakeLists.txt (the cundef
library from src/ plus the benchmark program) under $CARGO_TARGET_DIR,
or .bench_build when that is unset; later runs rebuild incrementally.
The program's notes are echoed, and the last line printed is one JSON
object {"correct", "attempted", "failed", "metrics"} holding every
metric BENCHMARK.json names for the run (end_to_end untraced,
per_layer traced). Exits non-zero, printing no result, when the build
fails, the program fails, or the result is incomplete.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("kccbench/run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build(out):
    tree = os.path.join(out, "kccbench")
    os.makedirs(tree, exist_ok=True)
    log_path = os.path.join(tree, "build.log")
    with open(log_path, "w") as log:
        jobs = str(min(4, os.cpu_count() or 1))
        steps = [["cmake", "-S", HERE, "-B", tree,
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", tree, "-j", jobs]]
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))
    return os.path.join(tree, "kccbench")


def expected_metrics(trace):
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        fail("failed must be a whole number >= 0")
    want = expected_metrics(trace)
    got = result["metrics"]
    for name, unit in want.items():
        if name not in got:
            fail("metric %s missing" % name)
        if got[name].get("unit") != unit:
            fail("metric %s has unit %r, want %r"
                 % (name, got[name].get("unit"), unit))
        value = got[name].get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("metric %s has value %r" % (name, value))
    result["metrics"] = {name: got[name] for name in want}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["search-deep", "ci-corpus", "serve-mixed"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="a fixed tiny amount of work (selftest.py)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    out = build_dir()
    binary = build(out)
    # A short relative path: serve-mixed binds a Unix socket under it.
    rel_out = os.path.relpath(out, ROOT)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", rel_out]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("kccbench did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("kccbench exited with %d" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not JSON: " + lines[-1][:200])
    check(result, args.trace == 1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
