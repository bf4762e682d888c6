#!/usr/bin/env python3
"""Run-to-run spread of kccbench's metrics.

Runs kccbench/run.py once per seed on each workload, one run at a time,
and reports for every metric the median of the runs and the spread: the
distance between the first and third quartiles (statistics.quantiles
with n=4) as a share of the median. End-to-end metrics are checked
against a third of their bound in BENCHMARK.json, setup_s excepted.

    python3 kccbench/spread.py [--workloads a,b] [--seeds 10]
        [--first-seed 1] [--out FILE]

With --out, the medians and spreads are written as JSON in the form of
one set of kccbench/BASELINE.json ("workloads"); resolves_10pct marks
a spread under 0.10. Exits 1 when a run fails or a spread is over a
third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("run failed: %s" % " ".join(cmd))
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report, ok = {}, True
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_once(workload, seed, args.seconds)
            if not result["correct"]:
                print("%s seed %d: correct is false" % (workload, seed))
                ok = False
            runs.append(result)
        rows = {}
        print("%s (%d seeds from %d):" % (workload, args.seeds,
                                          args.first_seed))
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med, spr = spread(values)
            rows[name] = {"median": med, "spread": round(spr, 4),
                          "unit": first["unit"],
                          "resolves_10pct": spr < 0.10}
            limit = bounds.get(name)
            flag = ""
            if limit is not None and name != "setup_s" and spr > limit / 3:
                flag = "  over a third of bound %g" % limit
                ok = False
            print("  %-34s median %-14.6g %-6s spread %.4f%s"
                  % (name, med, first["unit"], spr, flag))
        report[workload] = {"seeds": [args.first_seed,
                                      args.first_seed + args.seeds - 1],
                            "seconds": args.seconds, "metrics": rows}
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workloads": report}, f, indent=1)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
