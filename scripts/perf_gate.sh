#!/usr/bin/env bash
# Performance gate: run the perf_suite scenario set and compare it
# against a recorded baseline BENCH_*.json with the noise-aware diff.
# Exits nonzero when a regression clears the MAD/threshold gate, so CI
# can block perf regressions the same way verify.sh blocks functional
# ones.
#
# Usage: scripts/perf_gate.sh BASELINE.json [build-dir]
#
# Environment:
#   OTFT_BENCH_REPS    repetitions per scenario (default 5)
#   OTFT_BENCH_WARMUP  warmup reps per scenario (default 1)
#
# The gate itself is fixed in perf_report.cpp: a scenario regresses
# when its median wall time moves by more than max(10 %, 3 MAD,
# 20 us), a counter when it moves by more than 2 %.
set -euo pipefail

if [ $# -lt 1 ]; then
    echo "usage: scripts/perf_gate.sh BASELINE.json [build-dir]" >&2
    exit 2
fi
BASELINE="$1"
BUILD_DIR="${2:-build}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"

if [ ! -r "${BASELINE}" ]; then
    echo "perf_gate: cannot read baseline ${BASELINE}" >&2
    exit 2
fi

cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" >/dev/null
cmake --build "${BUILD_DIR}" -j "${JOBS}" --target perf_suite perf_diff

# The perf_smoke ctest label sanity-checks the recorder itself (the
# scenario set covers every layer, counters move, the gate trips on an
# injected slowdown) before we trust its verdict.
cmake --build "${BUILD_DIR}" -j "${JOBS}" --target test_perf_suite
ctest --test-dir "${BUILD_DIR}" -L perf_smoke --output-on-failure

current="$(mktemp /tmp/BENCH_current.XXXXXX.json)"
trap 'rm -f "${current}"' EXIT

"${BUILD_DIR}/bench/perf_suite" \
    --reps "${OTFT_BENCH_REPS:-5}" \
    --warmup "${OTFT_BENCH_WARMUP:-1}" \
    --out "${current}"

"${BUILD_DIR}/bench/perf_diff" "${BASELINE}" "${current}"
