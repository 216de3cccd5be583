#!/usr/bin/env bash
# Crash smoke: the supervised daemon must be indistinguishable, byte
# for byte, from one that never crashed.  A supervised daemon is
# started with a spill dir and a pid file; mid-batch, the live daemon
# incarnation (the pid in the pid file, never the supervisor) is
# SIGKILLed.  The supervisor must respawn it on the same socket, the
# resilient client must reconnect and replay, and the surviving
# response stream must diff clean against a crash-free reference run
# -- at --jobs 1, 2 and 4, with the jobs counts also diffing clean
# against each other.
set -euo pipefail

cd "$(dirname "$0")/.."
dune build bin/main.exe
BIN=_build/default/bin/main.exe

WORK="$(mktemp -d "${TMPDIR:-/tmp}/lsrv-crash.XXXXXX")"
cleanup() {
  # the supervisor forwards TERM to the live incarnation
  [ -n "${sup:-}" ] && kill -TERM "$sup" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

# A batch long enough that a mid-batch kill leaves work on both sides
# of the crash.  Repeats (ids 6-10 = ids 1-5) exercise replay through
# the reloaded result cache.
cat > "$WORK/requests.jsonl" <<'EOF'
{"id":1,"op":"classify-valence","model":"sync","n":3,"t":1,"depth":3}
{"id":2,"op":"sweep","model":"iis","n":3,"t":1,"depth":2}
{"id":3,"op":"classify-valence","model":"mobile","n":3,"t":1,"depth":2}
{"id":4,"op":"run-experiment","experiment":"E1"}
{"id":5,"op":"sweep","model":"sync","n":3,"t":1,"depth":2}
{"id":6,"op":"classify-valence","model":"sync","n":3,"t":1,"depth":3}
{"id":7,"op":"sweep","model":"iis","n":3,"t":1,"depth":2}
{"id":8,"op":"classify-valence","model":"mobile","n":3,"t":1,"depth":2}
{"id":9,"op":"run-experiment","experiment":"E1"}
{"id":10,"op":"sweep","model":"sync","n":3,"t":1,"depth":2}
EOF

wait_for_socket() {
  for _ in $(seq 1 100); do
    [ -S "$1" ] && return 0
    sleep 0.1
  done
  echo "serve-crash-smoke: socket $1 never appeared" >&2
  return 1
}

# the supervisor writes the pid file just after forking the child; the
# socket can win that race, so wait for both
wait_for_file() {
  for _ in $(seq 1 100); do
    [ -s "$1" ] && return 0
    sleep 0.1
  done
  echo "serve-crash-smoke: file $1 never appeared" >&2
  return 1
}

# Crash-free reference: a plain (unsupervised) daemon answering the
# same batch.  Raw response lines are what the recovered runs must
# reproduce exactly.
ref_sock="$WORK/ref.sock"
"$BIN" serve --socket "$ref_sock" --request-timeout 0 &
ref=$!
wait_for_socket "$ref_sock"
"$BIN" serve-client --socket "$ref_sock" < "$WORK/requests.jsonl" > "$WORK/reference.txt"
echo '{"op":"shutdown"}' | "$BIN" serve-client --socket "$ref_sock" > /dev/null
wait "$ref"

for jobs in 1 2 4; do
  sock="$WORK/j$jobs.sock"
  pidfile="$WORK/j$jobs.pid"
  spill="$WORK/spill-j$jobs"

  "$BIN" serve --socket "$sock" --jobs "$jobs" --request-timeout 0 \
    --supervise --pid-file "$pidfile" --spill-dir "$spill" --spill-every 1 &
  sup=$!
  wait_for_socket "$sock"
  wait_for_file "$pidfile"
  first_pid="$(cat "$pidfile")"

  # the client replays the batch; give it a generous per-request
  # deadline so a respawn window is never mistaken for a dead daemon
  "$BIN" serve-client --socket "$sock" --timeout 60 \
    < "$WORK/requests.jsonl" > "$WORK/recovered-j$jobs.txt" &
  client=$!

  # SIGKILL the daemon incarnation mid-batch (the pid file always
  # names the live child, never the supervisor)
  sleep 0.2
  kill -KILL "$first_pid" 2>/dev/null || true

  if ! wait "$client"; then
    echo "serve-crash-smoke: jobs=$jobs client did not survive the crash" >&2
    exit 1
  fi

  # the supervisor respawned: a new incarnation pid took the pid file.
  # The kill can land after the client has finished, and the respawn
  # follows a backoff, so poll for the new pid instead of reading once.
  second_pid="$first_pid"
  for _ in $(seq 1 100); do
    second_pid="$(cat "$pidfile")"
    [ -n "$second_pid" ] && [ "$first_pid" != "$second_pid" ] && break
    sleep 0.1
  done
  if [ -z "$second_pid" ] || [ "$first_pid" = "$second_pid" ]; then
    echo "serve-crash-smoke: jobs=$jobs daemon was never respawned" >&2
    exit 1
  fi

  # recovered responses are byte-identical to the crash-free reference
  diff "$WORK/reference.txt" "$WORK/recovered-j$jobs.txt"

  # drain cleanly through the supervisor (TERM is forwarded)
  kill -TERM "$sup"
  code=0
  wait "$sup" || code=$?
  sup=
  if [ "$code" -ne 0 ]; then
    echo "serve-crash-smoke: jobs=$jobs supervisor exited $code" >&2
    exit 1
  fi
  echo "serve-crash-smoke: jobs=$jobs OK (killed $first_pid, respawned $second_pid)"
done

# recovery is independent of the worker count
diff "$WORK/recovered-j1.txt" "$WORK/recovered-j2.txt"
diff "$WORK/recovered-j1.txt" "$WORK/recovered-j4.txt"

echo "serve-crash-smoke: PASS"
