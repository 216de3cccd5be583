#!/usr/bin/env bash
# The two widest sweeps no tier-1 test runs, each pinned by the MD5 of
# its stdout and by the `interned states` of its `--stats` from the same
# run.  No layering interns a successor (the layer kernel dedups by
# class vectors, not by identity), so a sweep interns exactly the states
# it reaches; the last level's layers are only counted.
#   - `layers -m mp -n 5 -t 1 -d 2` is the one report reaching width-5
#     S^per schedules (480 per state, each process entering with any of
#     16 inbox sets): 29,545 states.
#   - `layers -m smp -n 6 -t 1 -d 3` is the largest synchronic
#     message-passing sweep: 10,310 states.
# The timeouts are hang tripwires, not speed gates: each sweep takes a
# few seconds at most.
set -euo pipefail

cd "$(dirname "$0")/.."
dune build bin/main.exe
BIN=_build/default/bin/main.exe

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# pin MD5 INTERNED ARGS... : run the sweep once, check both figures
pin() {
  local want=$1 want_interned=$2
  shift 2
  timeout 120 "$BIN" "$@" --stats >"$tmp/stdout" 2>"$tmp/stats"
  local got interned
  got=$(md5sum <"$tmp/stdout" | cut -d' ' -f1)
  if [ "$got" != "$want" ]; then
    echo "wide-sweeps-smoke: $* printed MD5 $got, want $want" >&2
    exit 1
  fi
  interned=$(awk '$1 == "interned" && $2 == "states" { print $3 }' "$tmp/stats")
  if [ "$interned" != "$want_interned" ]; then
    echo "wide-sweeps-smoke: $* interned ${interned:-no} states, want $want_interned" >&2
    exit 1
  fi
  echo "wide-sweeps-smoke: $* OK ($got, $interned interned states)"
}

pin 7db848e6a3a2128e9a9d738c020ce4e1 29545 layers -m mp -n 5 -t 1 -d 2
pin bda51f3fb6a4396214e94dbee9af6ef8 10310 layers -m smp -n 6 -t 1 -d 3
