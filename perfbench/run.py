#!/usr/bin/env python3
"""Builds the benchmark program from this checkout and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is configured and built (Release) under perfbench/build on the
first run, against the library sources in src/. Its standard output ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}. Traced
runs also write their span log under perfbench/out. Exits non-zero, with no
result line, when the library sources are missing or the build or the run
fails.
"""
import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
OUT = os.path.join(HERE, "out")
BINARY = os.path.join(BUILD, "perfbench")

# A run measures for --seconds, then finishes its last repetition (about a
# second) and, when traced, its layer probes (a few seconds).
RUN_GRACE_SECONDS = 120
BUILD_TIMEOUT_SECONDS = 700


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"library sources not found under {ROOT}/src")
        return False
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"])
        for cmd in steps:
            try:
                # Build chatter goes to stderr: stdout carries the result.
                done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_SECONDS)
            except (OSError, subprocess.TimeoutExpired) as e:
                log(f"build step failed: {e}")
                return False
            if done.returncode != 0:
                log(f"build step failed ({done.returncode}): {' '.join(cmd)}")
                return False
    return os.path.isfile(BINARY)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        log("--seed must be >= 0 and --seconds in 1..600")
        return 2
    if not build():
        return 1
    os.makedirs(OUT, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, timeout=args.seconds + RUN_GRACE_SECONDS)
    except subprocess.TimeoutExpired:
        log("benchmark run timed out and was killed")
        return 1
    return 0 if done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
