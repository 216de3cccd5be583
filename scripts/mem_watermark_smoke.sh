#!/usr/bin/env bash
# Memory-watermark smoke: run one (6,1) synchronic-MP sweep under a soft
# memory watermark low enough to bite at a level boundary, and require
# its report to be byte-identical to an unconstrained reference -- at
# --jobs 1 and --jobs 4.
#
# The sweep goes to depth 3 so that the watermark bites with a wide
# margin: at the boundary after level 3 (10,310 states) the major heap
# holds about 1.8 M words at --jobs 1 and 1.7-2.0 M at --jobs 4, against
# the 131,072-word (1 MB) watermark.  A depth-2 sweep left the --jobs 1
# heap within a few percent of the watermark at its one boundary, so a
# small allocation change elsewhere silenced the watermark with no bug
# behind it.
#
# Two further legs harden the contract:
#   - the watermarked runs must actually have compacted ("memory soft
#     events" > 0 and "gc compactions" > 0 in --stats), or the watermark
#     silently stopped biting and the smoke proves nothing;
#   - a hard-trip leg runs with --max-mem 1 and must exit 3 (the
#     truncation exit code): the soft watermark only compacts, it never
#     overrides the hard cap.
set -euo pipefail

cd "$(dirname "$0")/.."
dune build bin/main.exe
BIN=_build/default/bin/main.exe

WORK="$(mktemp -d "${TMPDIR:-/tmp}/layered-mem-watermark-smoke.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

INSTANCE=(layers -m smp -n 6 -t 1 -d 3)
SOFT_MB="${MEM_SOFT_MB:-1}"

count() { # count <file> <label>  -- integer value of a --stats counter
  awk -v lbl="$2" '
    { line = $0; sub(/^[ \t]+/, "", line) }
    index(line, lbl) == 1 { print $NF; found = 1; exit }
    END { if (!found) print 0 }' "$1"
}

for jobs in 1 4; do
  ref="$WORK/ref-j$jobs.txt"
  out="$WORK/out-j$jobs.txt"
  err="$WORK/out-j$jobs.err"

  # Unconstrained reference.
  "$BIN" "${INSTANCE[@]}" --jobs "$jobs" > "$ref" 2>/dev/null

  # Watermarked run: stats go to stderr; stdout must not change at all.
  "$BIN" "${INSTANCE[@]}" --jobs "$jobs" --mem-soft "$SOFT_MB" --stats \
    > "$out" 2> "$err"
  if ! diff -u "$ref" "$out"; then
    echo "mem-watermark-smoke: jobs=$jobs watermarked report differs" >&2
    exit 1
  fi

  soft=$(count "$err" "memory soft events")
  compactions=$(count "$err" "gc compactions")
  if [ "$soft" -le 0 ] || [ "$compactions" -le 0 ]; then
    echo "mem-watermark-smoke: jobs=$jobs watermark never bit (soft events=$soft, compactions=$compactions)" >&2
    exit 1
  fi
  echo "mem-watermark-smoke: jobs=$jobs OK ($soft soft event(s), $compactions compaction(s), report identical)"
done

# Symmetry leg: the orbit-quotiented IIS sweep under the same soft
# watermark.  The --symmetry report must stay byte-identical to the
# unreduced reference while expanding strictly fewer states, and the
# quotient must actually engage (orbit hits > 0).  IIS is the
# renaming-closed substrate, so (5,1) is the large-instance analogue of
# the smp leg above (fubini growth rules out n >= 7 entirely).
SYM_INSTANCE=(layers -m iis -n 5 -t 1 -d 2)
sym_ref="$WORK/sym-ref.txt"
sym_ref_err="$WORK/sym-ref.err"
sym_out="$WORK/sym-out.txt"
sym_err="$WORK/sym-out.err"
"$BIN" "${SYM_INSTANCE[@]}" --jobs 1 --stats > "$sym_ref" 2> "$sym_ref_err"
"$BIN" "${SYM_INSTANCE[@]}" --jobs 4 --symmetry --mem-soft "$SOFT_MB" \
  --stats > "$sym_out" 2> "$sym_err"
if ! diff -u "$sym_ref" "$sym_out"; then
  echo "mem-watermark-smoke: --symmetry report differs from the unreduced run" >&2
  exit 1
fi
ref_states=$(count "$sym_ref_err" "states expanded")
sym_states=$(count "$sym_err" "states expanded")
orbit_hits=$(count "$sym_err" "orbit hits")
if [ "$sym_states" -ge "$ref_states" ]; then
  echo "mem-watermark-smoke: --symmetry expanded $sym_states states, unreduced $ref_states -- no reduction" >&2
  exit 1
fi
if [ "$orbit_hits" -le 0 ]; then
  echo "mem-watermark-smoke: --symmetry run recorded no orbit hits" >&2
  exit 1
fi
echo "mem-watermark-smoke: symmetry OK ($sym_states < $ref_states states, $orbit_hits orbit hit(s), report identical)"

# Hard-trip leg: the hard cap is not negotiable.  With --max-mem 1 the
# sweep must truncate and exit 3.
set +e
"$BIN" "${INSTANCE[@]}" --jobs 1 --max-mem 1 > /dev/null 2>&1
code=$?
set -e
if [ "$code" -ne 3 ]; then
  echo "mem-watermark-smoke: --max-mem 1 exited $code, expected 3 (truncated)" >&2
  exit 1
fi
echo "mem-watermark-smoke: hard-trip OK (exit 3 under --max-mem 1)"

echo "mem-watermark-smoke: PASS"
