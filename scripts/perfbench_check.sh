#!/usr/bin/env bash
# Perfbench correctness: run both perfbench workloads briefly (seed 1,
# one second) and require every output they produce to match the MD5
# table in perfbench/expected.txt -- the one-shot CLI bytes for each
# query, checked from the daemon and from the CLI path across all six
# substrates.  Each workload runs twice: end to end (--trace 0), and
# through the staged, traced replay of the daemon's request path
# (--trace 1).  perfbench/run.py prints its JSON result line last; each
# must carry "correct": true and "failed": 0.  Timings are ignored.
#
# The traced runs' seven work counters are a work check: they repeat
# exactly for every seed and run length, so each must equal its value
# below, or the script prints both values and fails.  A change that
# alters the work on purpose updates these values and says so in
# CHANGES.md, as for a golden digest.
set -euo pipefail

cd "$(dirname "$0")/.."

# workload counter value, per traced workload
pins='
oneshot states_expanded 708.7727272727273
oneshot dedup_hits 2387.5
oneshot interned_states 1611.2272727272727
oneshot intern_hits 2705.818181818182
oneshot simgraph_candidates 441.6818181818182
oneshot valence_cache_hits 634.9545454545455
oneshot valence_cache_misses 848.7727272727273
serve states_expanded 0
serve dedup_hits 0
serve interned_states 184.625
serve intern_hits 219
serve simgraph_candidates 0
serve valence_cache_hits 274.03125
serve valence_cache_misses 257.9270833333333
'

for workload in oneshot serve; do
  for trace in 0 1; do
    line=$(python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace "$trace" | tail -n 1)
    echo "$workload (trace $trace): $line"
    if ! python3 -c '
import json, sys
r = json.loads(sys.argv[1])
workload, trace, pins = sys.argv[2], sys.argv[3], sys.argv[4]
if not (r["correct"] is True and r["failed"] == 0):
    print("perfbench-check: %s (trace %s) produced a wrong or failed output" % (workload, trace),
          file=sys.stderr)
    sys.exit(1)
if trace == "1":
    ok = True
    for pin in pins.split("\n"):
        if not pin.strip():
            continue
        w, name, want = pin.split()
        if w != workload:
            continue
        got = r["metrics"][name]["value"]
        if got == float(want):
            print("  %s %s" % (name, got))
        else:
            print("  %s %s, expected %s" % (name, got, want))
            ok = False
    if not ok:
        print("perfbench-check: %s work counters differ from the pinned values" % workload,
              file=sys.stderr)
        sys.exit(1)
' "$line" "$workload" "$trace" "$pins"; then
      exit 1
    fi
  done
done
echo "perfbench-check: OK"
