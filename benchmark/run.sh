#!/usr/bin/env bash
# Builds scg_bench from source and runs the repo benchmark.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
#                    [--trace-out FILE] [--out FILE] [--smoke]
#
# Without --workload every workload runs in turn.  --smoke is a quick local
# check: 1 s of trials per workload with the same correctness checks.  Every
# metric is printed as "workload metric value unit ..."; the last line of
# each workload's output is its JSON result.  --trace 1 writes the Chrome
# trace-event file to --trace-out (default: the build directory).  The build
# goes to $CARGO_TARGET_DIR if set, else .bench_build, under the repo root.
# Exit status: 0 when every check passed, non-zero otherwise.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$build" = /* ]] || build="$root/$build"

workloads=(serve-miss serve-hit serve-poisson sim-mcmp)
selected=()
seed=1
seconds=25
trace=0
trace_out=""
out=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) selected+=("${2:?--workload needs a value}"); shift 2 ;;
    --seed) seed="${2:?--seed needs a value}"; shift 2 ;;
    --seconds) seconds="${2:?--seconds needs a value}"; shift 2 ;;
    --trace) trace="${2:?--trace needs 0 or 1}"; shift 2 ;;
    --trace-out) trace_out="${2:?--trace-out needs a file}"; shift 2 ;;
    --out) out="${2:?--out needs a file}"; shift 2 ;;
    --smoke) seconds=1; shift ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done
[[ ${#selected[@]} -gt 0 ]] || selected=("${workloads[@]}")

# Configure once per build directory, then let the build tool decide what
# is stale.  Build output goes to stderr so stdout carries only results.
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$build" --target scg_bench -j "$(nproc)" >&2

sha=unknown
if [[ -n "$out" && -d "$root/.git" ]]; then
  sha="$(git -C "$root" describe --always --dirty --abbrev=40 2>/dev/null || echo unknown)"
fi

# A file name given for several workloads gets the workload as a suffix.
for_workload() {
  if [[ ${#selected[@]} -gt 1 ]]; then echo "${1%.json}-$2.json"; else echo "$1"; fi
}

status=0
for w in "${selected[@]}"; do
  args=(--workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace"
        --golden "$root/benchmark/golden.json" --sha "$sha")
  if [[ "$trace" == 1 ]]; then
    if [[ -n "$trace_out" ]]; then
      args+=(--trace-out "$(for_workload "$trace_out" "$w")")
    else
      args+=(--trace-out "$build/trace-$w-seed$seed.json")
    fi
  fi
  [[ -z "$out" ]] || args+=(--out "$(for_workload "$out" "$w")")
  "$build/scg_bench" "${args[@]}" || status=$?
done
exit "$status"
