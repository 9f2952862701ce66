#!/usr/bin/env python3
"""Builds and runs the wall-clock end-to-end benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
benchmark (and the repository's libraries under ../src) into
$CARGO_TARGET_DIR/e2ebench, default .bench_build/e2ebench. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
With --trace 0 the metrics are the end-to-end ones, including setup_s, the
time from launching the benchmark process to its cluster being ready; with
--trace 1 they are the per-layer ones. See README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serial_tcp", "locking_inproc", "recovery_inproc")
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "e2ebench")


def build(out):
    """Configures once, then brings the binary up to date. Returns its path."""
    if not os.path.exists(os.path.join(out, "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", out, "--target", "e2ebench", "-j4"],
        check=True, stdout=sys.stderr)
    return os.path.join(out, "e2ebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    start = time.monotonic()  # CLOCK_MONOTONIC, as the binary's ready_ns
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        print(f"benchmark exited with {proc.returncode}", file=sys.stderr)
        return 1
    out = json.loads(lines[-1])
    metrics = out["metrics"]
    if args.trace == 0:
        metrics["setup_s"] = {"value": out["ready_ns"] / 1e9 - start,
                              "unit": "s"}
    result = {"correct": bool(out["correct"]) and proc.returncode == 0,
              "attempted": out["attempted"], "failed": out["failed"],
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
