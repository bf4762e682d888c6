#!/usr/bin/env python3
"""Per-layer table of kccbench's traced runs.

For each workload, reads the record a traced run wrote
(<build dir>/kccbench-results/<workload>-seed<N>-trace1.json), running
`kccbench/run.py --trace 1` first when it is missing, and prints every
span name's self time with its share of the time the layers worked (the
"bench" layer, the benchmark's own loop and the requests' queueing, is
left out of the shares). The last column names the workload where the
layer does the largest share of its work.

    python3 kccbench/layers.py [--seed 1] [--seconds N] [--rerun]
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def record_path(workload, seed):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "kccbench-results",
                        "%s-seed%d-trace1.json" % (workload, seed))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--rerun", action="store_true")
    args = ap.parse_args()

    workloads = [w["name"] for w in spec["workloads"]]
    shares = {}
    for w in workloads:
        path = record_path(w, args.seed)
        if args.rerun or not os.path.exists(path):
            subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                            "--workload", w, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", "1"],
                           cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
        with open(path) as f:
            trace = json.load(f)["trace"]
        by_name = {n: s for n, s in trace["self_s_by_name"].items()
                   if not n.startswith("bench.")}
        total = sum(by_name.values()) or 1.0
        shares[w] = {n: (s, s / total) for n, s in by_name.items()}

    names = sorted({n for w in workloads for n in shares[w]})
    header = "%-24s" % "span (layer.part)" + "".join(
        "%22s" % w for w in workloads) + "   most work on"
    print(header)
    print("-" * len(header))
    for name in names:
        cells, best = "", max(workloads,
                              key=lambda w: shares[w].get(name, (0, 0))[1])
        for w in workloads:
            s, share = shares[w].get(name, (0.0, 0.0))
            cells += "%22s" % ("%.3fs %5.1f%%" % (s, 100 * share))
        print("%-24s%s   %s" % (name, cells, best))
    print("\nself seconds and share of the layers' work in each workload's "
          "traced windows")


if __name__ == "__main__":
    main()
