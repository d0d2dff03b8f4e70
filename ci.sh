#!/usr/bin/env bash
# CI driver: builds and tests every correctness configuration.
#
#   ./ci.sh            all stages
#   ./ci.sh release    one stage: release | asan-ubsan | tsan | tidy | lint | perf
#
# Stages (each uses the matching CMakePresets.json preset, building into
# build/<preset>; every preset sets RUMR_WARNINGS_AS_ERRORS=ON):
#   release     Release build + full ctest suite (demos included)
#   asan-ubsan  Debug + ASan/UBSan + expensive-tier RUMR_CHECKs + ctest
#   tsan        RelWithDebInfo + TSan + expensive-tier RUMR_CHECKs + ctest
#   tidy        clang-tidy over src/ with the repo .clang-tidy, zero-warning
#               gate (skipped with a notice when clang-tidy is not installed)
#   lint        self-hosted determinism lint (tools/rumr_lint): zero-finding
#               gate over src/, tools/, and bench/ enforcing the rule catalog
#               in DESIGN.md §12 (no ambient randomness, no wall clocks
#               outside the obs allowlist, no unordered/pointer-keyed
#               iteration, no mutable statics, no exact float compares in
#               policy code, #pragma once, suppression hygiene), plus the
#               header self-sufficiency gate (every src/ header compiles as
#               a standalone TU). Unlike tidy, this stage has no external
#               dependency and always runs.
#   perf        fresh bench_perf_json snapshot (results/BENCH_des.json) gated
#               by tools/perf_gate against the checked-in
#               results/BENCH_baseline.json: any rate more than 20% below
#               baseline fails the stage; every snapshot is appended to
#               results/BENCH_history.jsonl for the trajectory
#
# The release, asan-ubsan, and tsan stages each finish with an explicit
# `ctest -L regression` pass: the golden-trace replays and the DES
# property/fuzz suite are the lockdown for kernel/engine rework, so they run
# visibly in every sanitizer configuration, not just inside the full suite.
# The full suite also runs the two self-checking demos (`ctest -L demo`:
# the chaos campaign at seed 802537 and the rumr_serve framed round trip),
# each of which exits nonzero on any violation.
set -euo pipefail
cd "$(dirname "$0")"

JOBS="${JOBS:-$(nproc)}"
STAGES=("${@:-release asan-ubsan tsan tidy lint perf}")
# Re-split in case the default string was taken as one word.
read -r -a STAGES <<< "${STAGES[*]}"

banner() { printf '\n=== %s ===\n' "$*"; }

# Reject typos up front, before any stage burns build time.
for stage in "${STAGES[@]}"; do
  case "$stage" in
    release|asan-ubsan|tsan|tidy|lint|perf) ;;
    *)
      echo "ci.sh: unknown stage '$stage' (valid: release | asan-ubsan | tsan | tidy | lint | perf)" >&2
      exit 2
      ;;
  esac
done

build_and_test() {
  local preset="$1"
  banner "configure [$preset]"
  cmake --preset "$preset"
  banner "build [$preset]"
  cmake --build --preset "$preset" -j "$JOBS"
  banner "ctest [$preset]"
  ctest --preset "$preset" -j "$JOBS"
  banner "regression suite [$preset]"
  ctest --preset "$preset" -L regression
}

for stage in "${STAGES[@]}"; do
  case "$stage" in
    release|asan-ubsan)
      build_and_test "$stage"
      ;;
    tsan)
      # Suppress nothing: the suite must be race-free as-is.
      TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" build_and_test tsan
      ;;
    tidy)
      if ! command -v clang-tidy > /dev/null 2>&1; then
        banner "tidy SKIPPED: clang-tidy not installed"
        continue
      fi
      banner "configure [tidy]"
      cmake --preset tidy
      banner "clang-tidy over src/ [zero-warning gate]"
      cmake --build --preset tidy -j "$JOBS"
      ;;
    lint)
      banner "configure+build rumr_lint [release]"
      cmake --preset release
      cmake --build --preset release -j "$JOBS" --target rumr_lint
      banner "determinism lint over src/ tools/ bench/ [zero-finding gate]"
      ./build/release/tools/rumr_lint --root . \
        --compile-commands build/release/compile_commands.json --error-exit
      banner "header self-sufficiency [every src/ header as a standalone TU]"
      cmake --build --preset release -j "$JOBS" --target rumr_header_selfcheck
      ;;
    perf)
      banner "configure+build perf gate [release]"
      cmake --preset release
      cmake --build --preset release -j "$JOBS" --target bench_perf_json perf_gate
      banner "perf snapshot [release]"
      ./build/release/bench/bench_perf_json results/BENCH_des.json
      banner "perf gate vs results/BENCH_baseline.json [>20% regression fails]"
      ./build/release/tools/perf_gate results/BENCH_des.json results/BENCH_baseline.json \
        --threshold 0.20 --history results/BENCH_history.jsonl
      ;;
    *)
      echo "unknown stage '$stage' (release|asan-ubsan|tsan|tidy|lint|perf)" >&2
      exit 2
      ;;
  esac
done

banner "ci.sh: all requested stages passed"
