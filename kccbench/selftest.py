#!/usr/bin/env python3
"""Self-test of kccbench.

Runs every workload at a tiny, fixed size twice, untraced and traced,
through kccbench/run.py, and checks that:

  * every metric BENCHMARK.json names is printed with its unit (run.py
    refuses a result that misses one) and correct is true;
  * the deterministic outputs repeat exactly between the two runs:
    verdict_accuracy and decided_rate untraced, and
    core.scheduler.runs_committed, core.scheduler.dedup_hits and
    static.must_findings traced;
  * driver.result_cache.hit_rate is 0 on search-deep and above 0 on
    serve-mixed.

    python3 kccbench/selftest.py      # exits 1 on the first failure
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 11
DETERMINISTIC = {
    0: ["verdict_accuracy", "decided_rate"],
    1: ["core.scheduler.runs_committed", "core.scheduler.dedup_hits",
        "static.must_findings"],
}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "1", "--trace",
           str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("FAIL: %s exited %d" % (" ".join(cmd), proc.returncode))
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    failures = []
    for workload in workloads:
        for trace in (0, 1):
            first, second = run(workload, trace), run(workload, trace)
            for r in (first, second):
                if not r["correct"]:
                    failures.append("%s trace %d: correct is false"
                                    % (workload, trace))
            for name in DETERMINISTIC[trace]:
                a = first["metrics"][name]["value"]
                b = second["metrics"][name]["value"]
                if a != b:
                    failures.append("%s trace %d: %s is %r then %r"
                                    % (workload, trace, name, a, b))
            if trace == 1:
                hit = first["metrics"]["driver.result_cache.hit_rate"]["value"]
                if workload == "search-deep" and hit != 0:
                    failures.append("search-deep: result-cache hit rate %r"
                                    % hit)
                if workload == "serve-mixed" and not hit > 0:
                    failures.append("serve-mixed: result-cache hit rate %r"
                                    % hit)
            print("%-12s trace %d checked" % (workload, trace))
    for f in failures:
        print("FAIL: " + f)
    if failures:
        sys.exit(1)
    print("selftest passed")


if __name__ == "__main__":
    main()
