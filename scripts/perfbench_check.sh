#!/usr/bin/env bash
# Perfbench correctness: run both perfbench workloads briefly (seed 1,
# one second, no trace) and require every output they produce to match
# the MD5 table in perfbench/expected.txt -- the one-shot CLI bytes for
# each query, checked from the daemon and from the CLI path across all
# six substrates.  perfbench/run.py prints its JSON result line last;
# each must carry "correct": true and "failed": 0.  Timings are ignored.
set -euo pipefail

cd "$(dirname "$0")/.."

for workload in oneshot serve; do
  line=$(python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)
  echo "$workload: $line"
  if ! python3 -c '
import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)
' "$line"; then
    echo "perfbench-check: $workload produced a wrong or failed output" >&2
    exit 1
  fi
done
echo "perfbench-check: OK"
