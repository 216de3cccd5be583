#!/usr/bin/env bash
# S^per at width 5: `layers -m mp -n 5 -t 1 -d 2` is the one report
# surface that reaches n = 5 permutation-layering schedules (480 per
# state, each process entering with any of 16 inbox sets), which no
# tier-1 test runs.  Its stdout must keep its committed MD5.  The
# timeout is a hang tripwire, not a speed gate: the sweep takes a few
# seconds.
set -euo pipefail

cd "$(dirname "$0")/.."
dune build bin/main.exe
BIN=_build/default/bin/main.exe

want=7db848e6a3a2128e9a9d738c020ce4e1
got=$(timeout 120 "$BIN" layers -m mp -n 5 -t 1 -d 2 | md5sum | cut -d' ' -f1)
if [ "$got" != "$want" ]; then
  echo "sper-n5-smoke: layers -m mp -n 5 -t 1 -d 2 printed MD5 $got, want $want" >&2
  exit 1
fi
echo "sper-n5-smoke: OK ($got)"
