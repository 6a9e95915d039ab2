#!/usr/bin/env bash
# Benchmark smoke: runs each workload named in BENCHMARK.json for a short
# window through perfbench/run.py (which builds perfbench/build on first
# use) and fails unless every run's result line reports "correct": true
# and "failed": 0. A run that fails outright (build error, crash, timeout)
# counts as a failed workload, and the remaining workloads still run.
# A smoke, not a measurement: 2 s runs are too short to compare speeds.
# Usage: scripts/run_bench_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."
mapfile -t workloads < <(python3 -c \
  'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]')

status=0
for w in "${workloads[@]}"; do
  last=$(python3 perfbench/run.py --workload "$w" --seed 1 --seconds 2 --trace 0 | tail -n 1) \
    || last='{}'
  echo "$w: $last"
  if ! python3 -c 'import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)' "$last"; then
    echo "BENCH SMOKE FAIL: $w" >&2
    status=1
  fi
done
[[ $status -eq 0 ]] && echo "BENCH SMOKE PASS (${#workloads[@]} workloads)"
exit $status
