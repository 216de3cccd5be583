#!/usr/bin/env bash
# CLI usage probes: every malformed argument must be refused before any
# work starts, with the documented exit code and a one-line reason, never
# with an uncaught exception.
#
#   124  cmdliner usage error: a bad --jobs, -n below 2, a negative
#        --max-new or --rounds, and a name (model, experiment, task,
#        oracle, verify protocol and failure model, graph structure)
#        that is not in the table it is looked up in -- exactly: a
#        prefix of a known name is refused too;
#     2  --resume without --checkpoint-dir.
#
# No probe's stderr may contain "internal error" (cmdliner's report of
# an exception that escaped a command, exit 125).
set -euo pipefail

cd "$(dirname "$0")/.."
dune build bin/main.exe
BIN=_build/default/bin/main.exe

WORK="$(mktemp -d "${TMPDIR:-/tmp}/layered-cli-probes.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

failures=0

probe() {
  local want="$1"
  shift
  local got=0
  "$BIN" "$@" > "$WORK/out" 2> "$WORK/err" || got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: layered $* exited $got, expected $want"
    sed 's/^/  | /' "$WORK/err"
    failures=$((failures + 1))
  elif grep -q "internal error" "$WORK/err"; then
    echo "FAIL: layered $* reported an internal error"
    sed 's/^/  | /' "$WORK/err"
    failures=$((failures + 1))
  else
    echo "ok   $want  layered $*"
  fi
}

probe 124 layers --jobs 0
probe 124 layers --jobs=-2
probe 124 layers --jobs abc

probe 124 layers -n 1
probe 124 chain -n 1
probe 124 verify -n 1
probe 124 classify -n 1
probe 124 graph con0 -n 1

probe 124 verify --max-new=-1
probe 124 verify --rounds=-1

probe 124 layers -m nope
probe 124 chain -m nope
probe 124 classify -m nope
probe 124 layers -m mo

probe 124 run E99
probe 124 graph task --task nope
probe 124 graph task --task co
probe 124 oracles simgraph-eq/sync simgraph-eq/nope
probe 124 verify -p flood
probe 124 verify --model gen
probe 124 graph c

probe 2 all --resume
probe 2 layers --resume

if [ "$failures" -ne 0 ]; then
  echo "$failures probe(s) failed"
  exit 1
fi
echo "all probes passed"
