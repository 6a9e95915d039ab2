#!/usr/bin/env python3
"""Steadiness harness: runs each workload once per seed, alternating the
workload order from round to round, and prints each end-to-end metric's
median, quartiles and relative spread (Q3 - Q1) / median next to its bound
from BENCHMARK.json. A spread above the bound is flagged FAIL (except for
setup_s, whose spread is not gated), and one above a third of the bound is
flagged WIDE.

With --seeds-b a second pass runs on other seeds (held out), and the
harness also flags any metric whose second median is worse than the first
by more than its bound.

    python3 perfbench/steady.py --seeds 1-10 --seeds-b 101-110
    python3 perfbench/steady.py --workloads sim_bursty_steal --seeds 1-5

Run it from the repository root. Raw results go to perfbench/out/.
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


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    t0 = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"{workload} seed {seed}: incorrect run: {lines[-2:]}")
    return result, wall


def run_pass(spec, workloads, seeds, label):
    values = {w: {} for w in workloads}
    for i, seed in enumerate(seeds):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            result, wall = run_once(spec, w, seed)
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"[{label}] {w} seed={seed} wall={wall:.1f}s "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
    return values


def summarize(spec, values, label):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    bad = 0
    print(f"\n== {label}: median [q1, q3] spread/bound")
    for w, metrics in values.items():
        for name, vals in metrics.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, {}).get("bound")
            flag = ""
            if bound is not None:
                if spread > bound and name != "setup_s":
                    flag, bad = "FAIL", bad + 1
                elif spread > bound / 3:
                    flag = "WIDE"
            limit = f"{bound:.2f}" if bound is not None else "-"
            print(f"  {w:20s} {name:36s} {med:14.6g} [{q1:.6g}, {q3:.6g}] "
                  f"{spread:6.3f}/{limit} {flag}")
    return bad


def compare(spec, first, second):
    bad = 0
    print("\n== second pass vs first: change of the median (positive = worse)")
    for m in spec["end_to_end"]:
        for w in first:
            a = statistics.median(first[w][m["name"]])
            b = statistics.median(second[w][m["name"]])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = "FAIL" if worse > m["bound"] else ("WIDE" if worse > m["bound"] / 3 else "")
            bad += flag == "FAIL"
            print(f"  {w:20s} {m['name']:14s} {a:14.6g} -> {b:14.6g} {worse:+7.3f}/{m['bound']:.2f} {flag}")
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10", help="seeds of the first pass, e.g. 1-10 or 1,4,9")
    ap.add_argument("--seeds-b", default="", help="seeds of a second, held-out pass")
    ap.add_argument("--workloads", default="", help="comma-separated subset (default: all)")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    first = run_pass(spec, workloads, parse_seeds(args.seeds), "A")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    raw = {"A": first}
    bad = summarize(spec, first, "pass A")
    if args.seeds_b:
        second = run_pass(spec, workloads, parse_seeds(args.seeds_b), "B")
        raw["B"] = second
        bad += summarize(spec, second, "pass B")
        bad += compare(spec, first, second)
    with open(os.path.join(HERE, "out", "steady_raw.json"), "w") as f:
        json.dump(raw, f, indent=1)
    print(f"\n{'STEADY' if bad == 0 else f'NOT STEADY ({bad} flagged)'}")
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
