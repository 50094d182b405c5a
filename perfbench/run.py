#!/usr/bin/env python3
"""Builds the wall-clock benchmark and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload select_large --seed 1 --seconds 20 --trace 0

The first call configures and builds the library and the benchmark program in
.bench_build/perfbench (Release); later calls only rebuild what changed.
The workload then runs in its own process. Its readable output goes to
standard output, and the last line is the result object:
{"correct", "attempted", "failed", "metrics"}. The exit code is non-zero
when the build fails, a correctness check fails, or the run times out.
README.md describes the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "tcq_perfbench")
WORKLOADS = ("select_large", "join_sortmerge", "warm_repeat")
# Each run must end within 180 s; leave room for set-up and shutdown.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "tcq_perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr so stdout ends with the result line.
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--spans", os.path.join(
            BUILD_DIR, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    if done.returncode != 0:
        # tcq_perfbench prints no result line when a check fails.
        sys.stdout.write(done.stdout)
        print("perfbench: tcq_perfbench exited with code %d" % done.returncode,
              file=sys.stderr)
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("perfbench: tcq_perfbench printed no result line", file=sys.stderr)
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"} or \
            result["correct"] is not True:
        print("perfbench: malformed or failed result", file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
