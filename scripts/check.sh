#!/usr/bin/env bash
# Tier-1 verification plus sanitizer passes:
#   1. default build + full ctest (the tier-1 gate: every smoke, the
#      scg_cli_paper_* goldens against EXPERIMENTS.md and the bench_check_*
#      baseline checks), and a smoke run of the repo benchmark
#      (benchmark/run.sh);
#   2. ASan+UBSan build + the fast-labelled tests (large sweeps excluded —
#      run `ctest --preset asan-fast` with no label filter to widen);
#   3. standalone UBSan build of the kernel-heavy suites (permutation,
#      SIMD perm kernels, route engine, oracle), of the solver and router
#      suites, and of the event-core and chaos suites, run directly;
#   4. TSan build of the concurrency-heavy suites (ThreadPool and its
#      consumers: batch routing, parallel reductions, the oracle build,
#      event-core lazy routing, chaos campaign, serving), run directly;
#   5. static analysis, when the tools are installed: a clang build with
#      -Werror=thread-safety (plus the negative-compilation tests proving
#      the annotations bite), the clang-tidy gate, and shellcheck over
#      scripts/.  Each step degrades to a skip message where the tool is
#      absent — CI's static-analysis job is the enforcing run.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: default build =="
cmake --preset default
cmake --build --preset default -j"$(nproc)"
ctest --preset default -j"$(nproc)"

echo "== repo benchmark: build scg_bench from source + smoke run =="
# The tier-1 build never compiles benchmark/scg_bench.cpp, so this is the
# step that catches a src/ change that breaks it.  --smoke runs every
# workload for 1 s with the full correctness checks; compare_test.py
# unit-tests the judge that compares benchmark runs.
bash benchmark/run.sh --smoke
python3 benchmark/compare_test.py

echo "== sanitizers: asan+ubsan build, fast tests =="
cmake --preset asan
cmake --build --preset asan -j"$(nproc)"
ctest --preset asan-fast -j"$(nproc)"

echo "== sanitizers: standalone ubsan build, kernel-heavy suites =="
# The SIMD kernels and their consumers lean on pointer casts, target-gated
# intrinsics, and reciprocal arithmetic; run those suites under pure UBSan
# (no ASan redzones, so the vector loads/stores run at full width).  The
# solver and router suites drive SolverContext's fixed-size state arrays
# and its word path on every family.  The event-core and chaos suites drive
# the calendar event queue's slot masks and packet-index lists.
cmake --preset ubsan
cmake --build --preset ubsan -j"$(nproc)"
./build-ubsan/tests/permutation_test
./build-ubsan/tests/perm_kernels_test
./build-ubsan/tests/route_engine_test
./build-ubsan/tests/oracle_test
./build-ubsan/tests/solver_test
./build-ubsan/tests/router_test
./build-ubsan/tests/event_core_test
./build-ubsan/tests/chaos_test

echo "== sanitizers: tsan build, concurrency suites =="
# ThreadPool, its consumers (route_batch on a four-thread pool,
# parallel_reduce on pools of 1 and 3, the frontier-parallel oracle build),
# the event core's lazy routing, the chaos campaign, and the serving layer
# are the threaded / observer-callback-heavy surfaces; run their suites
# under TSan.
cmake --preset tsan
cmake --build --preset tsan -j"$(nproc)"
./build-tsan/tests/parallel_test
./build-tsan/tests/route_engine_test
./build-tsan/tests/analysis_test
./build-tsan/tests/oracle_test
./build-tsan/tests/event_core_test
./build-tsan/tests/chaos_test
./build-tsan/tests/serve_test

echo "== static analysis: clang thread-safety build =="
if command -v clang++ >/dev/null 2>&1; then
  cmake --preset clang
  cmake --build --preset clang -j"$(nproc)"
  ctest --preset clang-fast -j"$(nproc)"
else
  echo "clang++ not found; skipping (the CI static-analysis job enforces it)"
fi

echo "== static analysis: clang-tidy gate =="
scripts/run_tidy.sh

echo "== static analysis: shellcheck =="
if command -v shellcheck >/dev/null 2>&1; then
  shellcheck scripts/*.sh
else
  echo "shellcheck not found; skipping (the CI static-analysis job enforces it)"
fi

echo "== all checks passed =="
