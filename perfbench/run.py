#!/usr/bin/env python3
"""Build the layered verifier from source and run one benchmark workload.

    python3 perfbench/run.py --workload oneshot|serve \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The script builds
perfbench/bench.exe with dune into .bench_build (dune's shared cache off
and temporary files kept under .bench_build, so nothing is written
outside the checkout), runs it, checks that its last stdout line is a
well-formed result, and prints that line last.  bench.ml documents the
workloads and metrics.  Exit codes: 0 with a result line, 2 without one
(no sources, build failure, crash or timeout).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
SOURCES = ("dune-project", "lib", "perfbench/dune", "perfbench/bench.ml",
           "perfbench/expected.txt")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def check_result(line):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected keys")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int):
            raise ValueError(f"{key} is not an integer")
    for name, metric in result["metrics"].items():
        if not isinstance(metric.get("value"), (int, float)):
            raise ValueError(f"{name} has no numeric value")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("oneshot", "serve"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    missing = [s for s in SOURCES if not os.path.exists(s)]
    if missing:
        fail(f"not a source checkout (missing {', '.join(missing)})")

    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    try:
        subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "./perfbench/bench.exe"],
            env=env, stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"build failed: {e}")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # A session of its own, so the setup processes it spawns die with it
    # if it fails or overruns.
    try:
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                                start_new_session=True)
    except OSError as e:
        fail(f"benchmark did not start: {e}")
    out = None
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() != 0:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    if out is None:
        fail("benchmark timed out")
    if proc.returncode != 0:
        fail(f"benchmark exited {proc.returncode}")
    lines = out.strip().splitlines()
    try:
        check_result(lines[-1])
    except (IndexError, ValueError, AttributeError) as e:
        fail(f"malformed result line: {e}")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
