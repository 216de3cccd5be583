#!/usr/bin/env bash
# Compare two `bench --json` snapshots kernel by kernel.
#
#   bench_compare.sh BASELINE.json CURRENT.json [max_ratio]
#
# Prints one row per kernel with the current/baseline wall-time ratio
# (kernels present in only one snapshot are skipped by the join).  With
# a third argument, exits 1 if any kernel's ratio exceeds it -- the
# kernels are timed single-shot, so a gate tighter than ~2x will flap.
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: $0 BASELINE.json CURRENT.json [max_ratio]" >&2
  exit 2
fi

base=$1
cur=$2
max=${3:-}

extract() {
  sed -n 's/.*"kernel": "\([^"]*\)".*"wall_ns": \([0-9]*\).*/\1 \2/p' "$1" | sort
}

join -j 1 <(extract "$base") <(extract "$cur") |
  awk -v max="$max" '
    BEGIN { printf "%-34s %12s %12s %8s\n", "kernel", "base_ns", "cur_ns", "ratio"; bad = 0 }
    {
      ratio = ($2 > 0) ? $3 / $2 : 0
      # %.0f, not %d: wall times past 2^31 ns (the saturation kernels)
      # would clamp under 32-bit awk integer formatting
      printf "%-34s %12.0f %12.0f %8.2f\n", $1, $2, $3, ratio
      if (max != "" && ratio > max + 0) bad++
    }
    END {
      if (bad > 0) {
        printf "%d kernel(s) regressed beyond %sx\n", bad, max | "cat >&2"
        exit 1
      }
    }'
