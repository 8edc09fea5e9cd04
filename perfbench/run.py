#!/usr/bin/env python3
"""Build the SHIELD library and shield_perfbench from this checkout, then
run one workload.

    python3 perfbench/run.py --workload read_hot --seed 1 --seconds 15 --trace 0

The build lands in .bench_build/perfbench/ at the root of the checkout
(Release, incremental after the first run). shield_perfbench's stdout is
passed through; its last line is the result object. Traced runs also write their
spans to .bench_build/spans/<workload>-<seed>.jsonl. Exits non-zero, with
no result line, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "shield_perfbench")
WORKLOADS = ("overwrite", "read_hot", "read_cold", "ds_ycsb_a")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds shield_perfbench; True on success."""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in f.read():
                shutil.rmtree(BUILD)  # configured for another checkout
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "shield_perfbench"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            print("build: cannot run %s: %s" % (cmd[0], e), file=sys.stderr)
            return False
        if done.returncode != 0:
            print("build failed: %s" % " ".join(cmd), file=sys.stderr)
            return False
    return os.path.exists(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in (0, 60]")

    if not build():
        return 2
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-%d.jsonl" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("run timed out after %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        print("shield_perfbench exited with %d" % done.returncode,
              file=sys.stderr)
        return done.returncode if done.returncode > 0 else 4
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(done.stdout)
        print("shield_perfbench printed no result line", file=sys.stderr)
        return 4
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
