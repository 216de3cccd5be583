#!/usr/bin/env bash
# S^per at width 5: `layers -m mp -n 5 -t 1 -d 2` is the one report
# surface that reaches n = 5 permutation-layering schedules (480 per
# state, each process entering with any of 16 inbox sets), which no
# tier-1 test runs.  Its stdout must keep its committed MD5, and its
# `--stats` from the same run must show 29,545 interned states: the
# states it reaches, and none of the last level's successors, which
# the sweep only counts.  The timeout is a hang tripwire, not a speed
# gate: the sweep takes a few seconds.
set -euo pipefail

cd "$(dirname "$0")/.."
dune build bin/main.exe
BIN=_build/default/bin/main.exe

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
timeout 120 "$BIN" layers -m mp -n 5 -t 1 -d 2 --stats >"$tmp/stdout" 2>"$tmp/stats"

want=7db848e6a3a2128e9a9d738c020ce4e1
got=$(md5sum <"$tmp/stdout" | cut -d' ' -f1)
if [ "$got" != "$want" ]; then
  echo "sper-n5-smoke: layers -m mp -n 5 -t 1 -d 2 printed MD5 $got, want $want" >&2
  exit 1
fi

want_interned=29545
interned=$(awk '$1 == "interned" && $2 == "states" { print $3 }' "$tmp/stats")
if [ "$interned" != "$want_interned" ]; then
  echo "sper-n5-smoke: layers -m mp -n 5 -t 1 -d 2 interned ${interned:-no} states, want $want_interned" >&2
  exit 1
fi
echo "sper-n5-smoke: OK ($got, $interned interned states)"
