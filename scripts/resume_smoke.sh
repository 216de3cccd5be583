#!/usr/bin/env bash
# Resume smoke: SIGKILL an `all --checkpoint-dir` run mid-flight, resume
# it from its snapshots, and require the resumed report to be
# byte-identical to an uninterrupted one -- at --jobs 1 and --jobs 4.
# Then the same for a multi-level `layers` sweep that checkpoints every
# two levels, interrupted by SIGINT at staggered delays: the handler
# cancels the traversal mid-level and the final snapshot it flushes must
# resume to the uninterrupted table.
#
# The kill is racy by design and every outcome must converge: a kill
# that lands after the run completed resumes from a complete snapshot
# set; one that lands before the first checkpoint resumes from scratch;
# one that tears a snapshot mid-write is rolled back to the previous
# intact generation by the loader.  In all cases the resumed report
# must equal the reference.
set -euo pipefail

cd "$(dirname "$0")/.."
dune build bin/main.exe
BIN=_build/default/bin/main.exe

WORK="$(mktemp -d "${TMPDIR:-/tmp}/layered-resume-smoke.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

for jobs in 1 4; do
  ref="$WORK/ref-j$jobs.md"
  out="$WORK/out-j$jobs.md"
  ckpt="$WORK/ckpt-j$jobs"

  # Uninterrupted reference.
  "$BIN" all --markdown --jobs "$jobs" > "$ref"

  # Interrupted run: a short head start, then SIGKILL -- no signal
  # handler gets a say, exactly the crash the checkpoint layer is for.
  "$BIN" all --markdown --jobs "$jobs" --checkpoint-dir "$ckpt" > /dev/null 2>&1 &
  pid=$!
  sleep "${RESUME_SMOKE_DELAY:-3}"
  kill -KILL "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null || true
  snapshots=0
  if [ -d "$ckpt" ]; then
    snapshots=$(find "$ckpt" -type f | wc -l | tr -d ' ')
  fi

  # Resume and compare.
  "$BIN" all --markdown --jobs "$jobs" --checkpoint-dir "$ckpt" --resume > "$out"
  if ! diff -u "$ref" "$out"; then
    echo "resume-smoke: jobs=$jobs report differs after resume" >&2
    exit 1
  fi
  echo "resume-smoke: jobs=$jobs OK ($snapshots snapshot(s) survived the kill)"
done

sweep=(layers -m smp -n 5 -t 1 -d 3 --checkpoint-every 2)
for jobs in 1 4; do
  ref="$WORK/sweep-ref-j$jobs.txt"
  "$BIN" "${sweep[@]}" --jobs "$jobs" > "$ref"
  for delay in 0.2 0.4 0.6 0.8 1.0; do
    ckpt="$WORK/sweep-ckpt-j$jobs-$delay"
    out="$WORK/sweep-out-j$jobs-$delay.txt"
    "$BIN" "${sweep[@]}" --jobs "$jobs" --checkpoint-dir "$ckpt" > /dev/null 2>&1 &
    pid=$!
    sleep "$delay"
    kill -INT "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
    "$BIN" "${sweep[@]}" --jobs "$jobs" --checkpoint-dir "$ckpt" --resume > "$out" 2>/dev/null
    if ! diff -u "$ref" "$out"; then
      echo "resume-smoke: layers jobs=$jobs SIGINT at ${delay}s: table differs after resume" >&2
      exit 1
    fi
  done
  echo "resume-smoke: layers jobs=$jobs OK (SIGINT at 0.2 0.4 0.6 0.8 1.0 s)"
done

echo "resume-smoke: PASS"
