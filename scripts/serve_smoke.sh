#!/usr/bin/env bash
# Serve smoke: start the daemon, replay a mixed query batch from two
# concurrent clients, and require (a) both clients' raw response lines
# to be byte-identical, (b) the same bytes again at --jobs 1, 2 and
# 4 (2 is the smallest count that computes two requests at once),
# (c) the decoded outputs to diff clean against the one-shot CLI, and
# (d) a clean exit 0 both via the shutdown op (jobs=1) and via SIGTERM
# (jobs=2 and 4), with the socket unlinked afterwards.
#
# The batch deliberately repeats its first query (id 5 == id 1): the
# replay is served from the result cache and must still produce the
# same bytes.  Stats responses are exercised but never diffed -- their
# counters legitimately depend on interleaving.
set -euo pipefail

cd "$(dirname "$0")/.."
dune build bin/main.exe
BIN=_build/default/bin/main.exe

WORK="$(mktemp -d "${TMPDIR:-/tmp}/lsrv-smoke.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

cat > "$WORK/requests.jsonl" <<'EOF'
{"id":1,"op":"classify-valence","model":"sync","n":3,"t":1,"depth":3}
{"id":2,"op":"sweep","model":"iis","n":3,"t":1,"depth":2}
{"id":3,"op":"run-experiment","experiment":"E1"}
{"id":4,"op":"classify-valence","model":"mobile","n":3,"t":1,"depth":2}
{"id":5,"op":"classify-valence","model":"sync","n":3,"t":1,"depth":3}
EOF

# One-shot CLI reference for the decoded outputs, in request order.
{
  "$BIN" classify -m sync -n 3 -t 1 -d 3
  "$BIN" layers -m iis -n 3 -t 1 -d 2
  "$BIN" run E1
  "$BIN" classify -m mobile -n 3 -t 1 -d 2
  "$BIN" classify -m sync -n 3 -t 1 -d 3
} > "$WORK/oneshot.txt"

wait_for_socket() {
  for _ in $(seq 1 100); do
    [ -S "$1" ] && return 0
    sleep 0.1
  done
  echo "serve-smoke: socket $1 never appeared" >&2
  return 1
}

for jobs in 1 2 4; do
  sock="$WORK/j$jobs.sock"
  # --request-timeout 0: the smoke diffs must not depend on whether a
  # loaded CI box crosses a wall-clock deadline.
  "$BIN" serve --socket "$sock" --jobs "$jobs" --request-timeout 0 &
  srv=$!
  wait_for_socket "$sock"

  # Two concurrent clients replay the same batch; each connection's
  # responses must come back in request order with identical bytes.
  "$BIN" serve-client --socket "$sock" < "$WORK/requests.jsonl" > "$WORK/a-j$jobs.txt" &
  ca=$!
  "$BIN" serve-client --socket "$sock" < "$WORK/requests.jsonl" > "$WORK/b-j$jobs.txt" &
  cb=$!
  wait "$ca"
  wait "$cb"
  diff "$WORK/a-j$jobs.txt" "$WORK/b-j$jobs.txt"

  # The daemon's decoded outputs are the one-shot CLI's stdout, byte
  # for byte.
  "$BIN" serve-client --socket "$sock" --output-only < "$WORK/requests.jsonl" \
    > "$WORK/decoded-j$jobs.txt"
  diff "$WORK/oneshot.txt" "$WORK/decoded-j$jobs.txt"

  # Stats answers ok (contents not diffed).
  echo '{"id":99,"op":"stats"}' | "$BIN" serve-client --socket "$sock" \
    | grep -q '"status":"ok"'

  if [ "$jobs" -eq 1 ]; then
    echo '{"op":"shutdown"}' | "$BIN" serve-client --socket "$sock" > /dev/null
  else
    kill -TERM "$srv"
  fi
  code=0
  wait "$srv" || code=$?
  if [ "$code" -ne 0 ]; then
    echo "serve-smoke: jobs=$jobs daemon exited $code" >&2
    exit 1
  fi
  if [ -e "$sock" ]; then
    echo "serve-smoke: jobs=$jobs socket left behind" >&2
    exit 1
  fi
  echo "serve-smoke: jobs=$jobs OK"
done

# Responses are independent of the worker count.
diff "$WORK/a-j1.txt" "$WORK/a-j2.txt"
diff "$WORK/a-j1.txt" "$WORK/a-j4.txt"

echo "serve-smoke: PASS"
