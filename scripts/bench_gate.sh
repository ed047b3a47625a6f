#!/usr/bin/env bash
# Runs one bench binary and gates its fresh JSON against the committed
# baseline:
#
#   scripts/bench_gate.sh BENCH BASELINE [BENCH_ARGS...]
#
# BASELINE is the committed file's path relative to the repo root (e.g.
# bench/baseline_sim.json).  BENCH runs with BENCH_ARGS in a fresh scratch
# directory, so a bench that writes BASELINE's relative path — by default,
# or because BENCH_ARGS name it — never clobbers the committed file.  The
# fresh file is then compared with compare_bench.py: invariant fields must
# match exactly, rate fields must reach 0.5x the baseline.  The tolerance
# is loose because the committed baselines come from a different machine;
# the gate catches broken invariants and order-of-magnitude regressions,
# not jitter.
set -euo pipefail

if [ "$#" -lt 2 ]; then
  echo "usage: $0 BENCH BASELINE [BENCH_ARGS...]" >&2
  exit 2
fi
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
bench="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
baseline="$2"
shift 2

scratch="$(mktemp -d "${TMPDIR:-/tmp}/scg-gate.XXXXXX")"
trap 'rm -rf "$scratch"' EXIT
mkdir -p "$scratch/$(dirname "$baseline")"
(cd "$scratch" && "$bench" "$@")
python3 "$repo_root/scripts/compare_bench.py" "$repo_root/$baseline" \
  "$scratch/$baseline" --tolerance 0.5
