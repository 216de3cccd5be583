# Convenience targets; the source of truth is dune.

.PHONY: build test bench-smoke bench-compare bench-baseline perfbench-check chaos-smoke resume-smoke mem-watermark-smoke serve-smoke serve-crash-smoke serve-saturation-smoke wide-sweeps-smoke fmt

build:
	dune build

test:
	dune runtest

# Run every bench kernel exactly once (no Bechamel measurement) so bench
# code cannot bit-rot unexercised.
bench-smoke:
	dune exec bench/main.exe -- --smoke

# Snapshot the current kernels and diff them against the committed
# baseline, kernel by kernel (current/baseline wall-time ratio).
bench-compare:
	dune exec bench/main.exe -- --json > BENCH_current.json
	bash scripts/bench_compare.sh BENCH_baseline.json BENCH_current.json

# Refresh the committed baseline after a deliberate perf change.
bench-baseline:
	dune exec bench/main.exe -- --json > BENCH_baseline.json

# Run both perfbench workloads for a second each, end to end and traced,
# and require every output to match perfbench/expected.txt ("correct":
# true, "failed": 0); the traced runs print their work counters.
perfbench-check:
	bash scripts/perfbench_check.sh

# One full round of the fault-injection matrix at a fixed seed: every
# (site, oracle) cell must detect its armed fault and pass its control.
chaos-smoke:
	dune exec bin/main.exe -- chaos --seed 42 --trials 66

# SIGKILL an `all --checkpoint-dir` run mid-flight, resume it, and
# require the resumed report to be byte-identical to an uninterrupted
# one at --jobs 1 and --jobs 4.
resume-smoke:
	bash scripts/resume_smoke.sh

# Run a large sweep under a soft memory watermark tight enough to
# compact at its level boundaries and require the report to be
# byte-identical to the unconstrained one at --jobs 1 and 4, with the
# --max-mem hard-trip exit code along for the ride.
mem-watermark-smoke:
	bash scripts/mem_watermark_smoke.sh

# Start the verification daemon, replay mixed queries from concurrent
# clients at --jobs 1 and 4, diff everything against the one-shot CLI,
# and require clean exits via both the shutdown op and SIGTERM.
serve-smoke:
	bash scripts/serve_smoke.sh

# SIGKILL the supervised daemon mid-batch and require the respawned
# incarnation + replaying client to reproduce the crash-free bytes at
# --jobs 1 and 4.
serve-crash-smoke:
	bash scripts/serve_crash_smoke.sh

# Flood one connection past its per-client cap while a well-behaved
# client works a mixed batch: the flood must shed with structured
# per-client responses, the polite client must complete with one-shot
# bytes, and the daemon must exit clean.
serve-saturation-smoke:
	bash scripts/serve_saturation_smoke.sh

# Run the mp (5,1) depth-2 and smp (6,1) depth-3 sweeps, the widest
# reports no tier-1 test runs, and require each one's committed stdout
# MD5 and its count of interned states.
wide-sweeps-smoke:
	bash scripts/wide_sweeps_smoke.sh

fmt:
	@dune fmt || echo "fmt skipped (ocamlformat not available)"
