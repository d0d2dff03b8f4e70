#!/usr/bin/env python3
"""Builds rumr_bench from source, then runs it with the given arguments.

Run from the repository root:

    python3 bench/perf/run.py --workload sweep-table2 --seed 1 --seconds 15 --trace 0

The benchmark is compiled inside the repository's own CMake build (see
targets.cmake and inject.cmake) in $CARGO_TARGET_DIR/rumr_bench, or in
.bench_build/rumr_bench when that variable is unset. Build output goes to
standard error, so the last line of standard output is the benchmark's JSON
result. Every argument is passed to rumr_bench unchanged (see main.cpp).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def run_quietly(command):
    """Runs a build step with its output on stderr; exits on failure."""
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr, check=False)
    if result.returncode != 0:
        sys.exit(f"run.py: {' '.join(command)} failed with exit code {result.returncode}")


def build(build_dir):
    """Configures (idempotent) and builds the rumr_bench target."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit(f"run.py: no rumr sources under {ROOT}")
    run_quietly([
        "cmake", "-S", ROOT, "-B", build_dir,
        "-DCMAKE_BUILD_TYPE=Release",
        "-DRUMR_BUILD_TESTS=OFF",
        "-DRUMR_BUILD_BENCH=OFF",
        "-DRUMR_BUILD_EXAMPLES=OFF",
        "-DRUMR_BUILD_TOOLS=OFF",
        "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(HERE, "inject.cmake"),
    ])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quietly(["cmake", "--build", build_dir, "--target", "rumr_bench", "-j", jobs])
    return os.path.join(build_dir, "rumr_bench")


def main():
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(os.path.abspath(os.path.join(target_dir, "rumr_bench")))
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
