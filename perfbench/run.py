#!/usr/bin/env python3
"""Whole-frame benchmark of the Watchmen stack.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper48 --seed 7 --seconds 30 --trace 0

Builds perfbench/ (the library modules from src/ plus the frame_bench
binary) with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), then runs frame_bench, which measures for the given
seconds and prints, as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Workloads: paper48, scale256_wire (BENCHMARK.json says why).
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics.
`attempted` counts the frames run, `failed` the frames of passes that
failed a correctness check. Exit status: 0 when every check passed, 1 when a
check failed (the result line is still printed), 2 when the benchmark could
not be built or run (nothing is printed on standard output).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then builds frame_bench (a no-op when current)."""
    build_dir = os.path.join(
        os.getcwd(), os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
        "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "frame_bench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, check=False).returncode:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "frame_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    done = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        check=False)
    if done.returncode not in (0, 1):
        fail(f"frame_bench exited with {done.returncode}")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
