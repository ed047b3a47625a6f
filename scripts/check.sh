#!/usr/bin/env bash
# Tier-1 verification plus sanitizer passes:
#   1. default build + full ctest (the tier-1 gate), the bench gates, and
#      a smoke run of the repo benchmark (benchmark/run.sh);
#   2. ASan+UBSan build + the fast-labelled tests (large sweeps excluded —
#      run `ctest --preset asan-fast` with no label filter to widen);
#   3. standalone UBSan build of the kernel-heavy suites (permutation,
#      SIMD perm kernels, route engine, oracle), run directly;
#   4. TSan build of the concurrency-heavy suites (ThreadPool, event-core
#      lazy routing, chaos campaign), run directly;
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

echo "== oracle smoke: build + reload a tiny exact-distance table =="
oracle_table="$(mktemp /tmp/scg-oracle.XXXXXX)"
./build/examples/scg_cli oracle build MS 2 2 "$oracle_table"
./build/examples/scg_cli oracle query MS 2 2 "$oracle_table" 53421 12345
rm -f "$oracle_table"

echo "== routing benches: correctness report + engine throughput gate =="
./build/bench/bench_routing
# Every bench gate runs its bench in a scratch dir and compares the fresh
# JSON with the committed baseline (scripts/bench_gate.sh).
scripts/bench_gate.sh build/bench/bench_engine bench/baseline_engine.json

echo "== kernel microbench: SIMD tier identity + speedup gate =="
# bench_kernels exits non-zero if any SIMD tier output differs from the
# scalar reference; the JSON gate pins the byte-identity flags exactly and
# the speedup/rate fields loosely (the committed baseline's dispatch tier is
# stamped in its "meta" object).
scripts/bench_gate.sh build/bench/bench_kernels bench/baseline_kernels.json

echo "== kernels smoke: dispatch tier report + scalar identity check =="
./build/examples/scg_cli kernels

echo "== simulation bench: event-core invariants + lazy-routing gate =="
# bench_mcmp re-simulates every workload and the lazy-vs-prerouted
# acceptance run; completion cycles / hop and event counts / sim_identical
# must match the committed baseline exactly, lazy_speedup and sim_rps only
# loosely (machine speed).
scripts/bench_gate.sh build/bench/bench_mcmp bench/baseline_sim.json

echo "== fault bench: connectivity, routing and MCMP degradation gate =="
# The mcmp_degradation rows pin the fault-mode event core (delivered,
# timeouts, retransmissions, latency percentiles, event counts) exactly.
scripts/bench_gate.sh build/bench/bench_fault bench/baseline_fault.json \
  bench/baseline_fault.json

echo "== chaos campaign: invariant-audited degradation gate =="
# bench_chaos exits non-zero on any invariant violation or a transient
# full-repair cell that misses the fault-free delivered fraction; the JSON
# gate then pins the integer degradation surface (delivered / timeouts /
# retransmissions / completion cycles per cell) to the committed baseline.
scripts/bench_gate.sh build/bench/bench_chaos bench/baseline_chaos.json \
  bench/baseline_chaos.json

echo "== serve smoke: concurrent RouteService, verified words =="
# Small family, 2 workers; serve-bench exits non-zero on a conservation or
# word-identity violation.
./build/examples/scg_cli serve-bench MS 2 2 2 500

echo "== serving bench: SLO telemetry + shedding gate =="
# conservation / words_ok / shed_nonzero must hold exactly, serve_rps only
# loosely (machine speed).
scripts/bench_gate.sh build/bench/bench_serve bench/baseline_serve.json

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
# (no ASan redzones, so the vector loads/stores run at full width).
cmake --preset ubsan
cmake --build --preset ubsan -j"$(nproc)"
./build-ubsan/tests/permutation_test
./build-ubsan/tests/perm_kernels_test
./build-ubsan/tests/route_engine_test
./build-ubsan/tests/oracle_test

echo "== sanitizers: tsan build, concurrency suites =="
# ThreadPool, the event core's lazy routing, the chaos campaign, and the
# serving layer are the threaded / observer-callback-heavy surfaces; run
# their suites under TSan.
cmake --preset tsan
cmake --build --preset tsan -j"$(nproc)"
./build-tsan/tests/parallel_test
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
