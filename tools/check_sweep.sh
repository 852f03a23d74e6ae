#!/usr/bin/env bash
# One-shot sweep-acceleration gate: builds the default tree and runs the
# `sweep` ctest label (adaptive-refinement fuzz, coupling-model battery,
# flow-level 10x/1dB acceptance, digest and resume coupling, thread
# invariance), then the accelerated benchmarks so
# the solve-count counters land in the console log.
#
#   tools/check_sweep.sh [build-dir]           default build dir: build
#
# Exits 0 when everything passes, non-zero on any failure. The benchmark
# half is skipped (with a notice) when the bench binary is absent - bench
# targets are part of the default build, so that only happens on a
# tests-only configure.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-"${repo_root}/build"}"

if [[ ! -d "$build_dir" ]]; then
  echo "check_sweep: configuring ${build_dir}"
  cmake -S "$repo_root" -B "$build_dir" >/dev/null
fi

echo "check_sweep: building"
cmake --build "$build_dir" -j "$(nproc)"

echo "check_sweep: running 'sweep' ctest label"
ctest --test-dir "$build_dir" -L sweep --output-on-failure

bench="${build_dir}/bench/bench_perf_parallel"
if [[ -x "$bench" ]]; then
  echo "check_sweep: solve-count economics (BM_AdaptiveSweep / BM_SensitivityRankingAdaptive)"
  "$bench" --benchmark_filter='Adaptive' --benchmark_min_time=0.05
else
  echo "check_sweep: SKIP benchmarks (${bench} not built)"
fi

echo "check_sweep: all green"
