#!/usr/bin/env python3
"""Check that the benchmark is steady: run every workload repeatedly and
report each end-to-end metric's median, quartiles and spread.

    python3 perfbench/steady.py --runs 10 --sets 2

Each set runs every workload --runs times, alternating the workload order
from one round to the next, with a fresh seed per run. A metric's spread
is (q3 - q1) / median over a set, with the quartiles from
statistics.quantiles(values, n=4). The tool names every metric whose
spread exceeds its bound in BENCHMARK.json (setup_s is exempt, as its
spread is not bounded), and with --sets 2 every metric whose second
median is worse than the first by more than its bound. It also fails any
run that reports a failed operation. Raw results go to --out.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    start = time.time()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    elapsed = time.time() - start
    if done.returncode != 0:
        return None, elapsed
    return json.loads(done.stdout.strip().split("\n")[-1]), elapsed


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--seed", type=int, default=1000,
                        help="first seed; each run adds one")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", default=os.path.join(
        ROOT, ".bench_build", "steady.json"))
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    metrics = bench["per_layer" if args.trace else "end_to_end"]

    results = {}  # (set, workload) -> list of metric dicts
    problems = []
    seed = args.seed
    for s in range(args.sets):
        for r in range(args.runs):
            order = workloads if r % 2 == 0 else workloads[::-1]
            for w in order:
                result, elapsed = run_once(w, seed, args.seconds, args.trace)
                print("set %d run %2d %-10s seed %d: %5.1f s %s" % (
                    s + 1, r + 1, w, seed, elapsed,
                    "ok" if result and result["failed"] == 0 and
                    result["correct"] else "FAILED"), flush=True)
                seed += 1
                if not result:
                    problems.append("%s seed %d: no result" % (w, seed - 1))
                    continue
                if result["failed"] or not result["correct"]:
                    problems.append("%s seed %d: %d of %d ops failed" % (
                        w, seed - 1, result["failed"], result["attempted"]))
                results.setdefault((s, w), []).append(result["metrics"])

    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump({"%d/%s" % k: v for k, v in results.items()}, f, indent=1)

    for w in workloads:
        print("\n%s" % w)
        print("  %-28s %12s %12s %12s %8s %7s%s" % (
            "metric", "q1", "median", "q3", "spread", "bound",
            "  2nd-vs-1st" if args.sets == 2 else ""))
        for m in metrics:
            name, bound = m["name"], m.get("bound")
            meds = []
            line = ""
            for s in range(args.sets):
                values = [r[name]["value"] for r in results.get((s, w), [])
                          if name in r]
                if not values:
                    problems.append("%s/%s: no value" % (w, name))
                    break
                if len(values) == 1:
                    line = "  %-28s %12s %12.5g %12s %8s %7s %s" % (
                        name, "", values[0], "", "", "", m["unit"])
                    break
                med, q1, q3, spr = spread(values)
                meds.append(med)
                if s == 0:
                    line = "  %-28s %12.5g %12.5g %12.5g %8.3f %7s" % (
                        name, q1, med, q3, spr,
                        "%.3f" % bound if bound is not None else "-")
                if (bound is not None and name != "setup_s" and spr > bound):
                    problems.append("%s/%s: set %d spread %.3f > bound %.3f"
                                    % (w, name, s + 1, spr, bound))
            if len(meds) == 2 and meds[0]:
                worse = (meds[1] - meds[0]) / meds[0]
                if m["better"] == "higher":
                    worse = -worse
                line += "  %+.3f" % worse
                if bound is not None and worse > bound:
                    problems.append("%s/%s: second median worse by %.3f > %.3f"
                                    % (w, name, worse, bound))
            print(line)
    print()
    for p in problems:
        print("UNSTEADY: " + p)
    print("steady" if not problems else "%d problem(s)" % len(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
