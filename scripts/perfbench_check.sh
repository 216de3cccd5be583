#!/usr/bin/env bash
# Perfbench correctness: run both perfbench workloads briefly (seed 1,
# one second) and require every output they produce to match the MD5
# table in perfbench/expected.txt -- the one-shot CLI bytes for each
# query, checked from the daemon and from the CLI path across all six
# substrates.  Each workload runs twice: end to end (--trace 0), and
# through the staged, traced replay of the daemon's request path
# (--trace 1).  perfbench/run.py prints its JSON result line last; each
# must carry "correct": true and "failed": 0.  Timings are ignored; the
# traced run's work counters are printed so they can be diffed against
# another commit's (they repeat exactly at a fixed seed).
set -euo pipefail

cd "$(dirname "$0")/.."

counters="states_expanded dedup_hits interned_states intern_hits simgraph_candidates valence_cache_hits valence_cache_misses"

for workload in oneshot serve; do
  for trace in 0 1; do
    line=$(python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace "$trace" | tail -n 1)
    echo "$workload (trace $trace): $line"
    if ! python3 -c '
import json, sys
r = json.loads(sys.argv[1])
ok = r["correct"] is True and r["failed"] == 0
if sys.argv[2] == "1":
    for name in sys.argv[3].split():
        print("  %s %s" % (name, r["metrics"][name]["value"]))
sys.exit(0 if ok else 1)
' "$line" "$trace" "$counters"; then
      echo "perfbench-check: $workload (trace $trace) produced a wrong or failed output" >&2
      exit 1
    fi
  done
done
echo "perfbench-check: OK"
