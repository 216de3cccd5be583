#!/usr/bin/env bash
# Gate one `bench --json` snapshot against a table of kernel comparisons.
#
#   bench_gates.sh BENCH.json
#
# Each row of the table below reads "kernel metric op factor reference
# cores": the row passes when
#
#   metric(kernel) op factor * metric(reference)
#
# where metric is a field of the kernel's JSON record (wall_ns or
# states) and op is <= or <.  Every row prints PASS or FAIL; a row whose
# core guard exceeds `nproc` prints UNMEASURED instead, since a parallel
# win cannot show on fewer cores (it neither passes nor fails).  A kernel
# or metric missing from the snapshot is a FAIL.  Exits 1 if any row
# fails.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 BENCH.json" >&2
  exit 2
fi

gates='
simgraph/bucketed        wall_ns <= 1 simgraph/pairwise    1
serve/warm-valence       wall_ns <= 1 serve/cold-valence   1
serve/warm-after-restart wall_ns <= 1 serve/cold-valence   1
serve/saturation-conc    wall_ns <= 1 serve/saturation-seq 2
oocore/smp6-jobs4        wall_ns <= 1 oocore/smp6-serial   2
oocore/iis5-sym-jobs4    states  <  1 oocore/iis5-jobs4    1
oocore/iis5-sym-jobs4    wall_ns <= 1 oocore/iis5-jobs4    2
'

awk -v cores="$(nproc)" -v gates="$gates" '
  {
    if (!match($0, /"kernel": "[^"]*"/)) next
    kernel = substr($0, RSTART + 11, RLENGTH - 12)
    for (i = 1; i <= 2; i++) {
      field = (i == 1) ? "wall_ns" : "states"
      if (match($0, "\"" field "\": [0-9]+"))
        value[kernel, field] = substr($0, RSTART + length(field) + 4, RLENGTH - length(field) - 4)
    }
  }
  END {
    rows = split(gates, line, "\n")
    bad = 0
    for (r = 1; r <= rows; r++) {
      if (split(line[r], g, " ") != 6) continue
      k = g[1]; m = g[2]; op = g[3]; f = g[4]; ref = g[5]; need = g[6]
      row = sprintf("%-24s %-7s %-2s %s x %-20s", k, m, op, f, ref)
      if (!((k, m) in value) || !((ref, m) in value)) {
        printf "FAIL        %s  (missing from the snapshot)\n", row
        bad++
        continue
      }
      a = value[k, m]; b = f * value[ref, m]
      if (cores + 0 < need + 0) {
        printf "UNMEASURED  %s  %.0f vs %.0f (needs %d cores, have %d)\n", row, a, b, need, cores
        continue
      }
      ok = (op == "<") ? (a + 0 < b + 0) : (a + 0 <= b + 0)
      printf "%-11s %s  %.0f vs %.0f\n", ok ? "PASS" : "FAIL", row, a, b
      if (!ok) bad++
    }
    if (bad > 0) {
      printf "%d bench gate(s) failed\n", bad | "cat >&2"
      exit 1
    }
  }' "$1"
