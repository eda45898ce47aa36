#!/usr/bin/env bash
# Record one point of the performance trajectory: build, run the
# perf_suite scenario set plus the fig13 and fig14 figures and a
# 4-sample Monte Carlo characterization, and write the next
# BENCH_<seq>.json in the bench-results directory. Compare two points
# with bench/perf_diff or scripts/perf_gate.sh.
#
# The figures run at the script's job count in a fresh temporary
# directory with no persisted result cache, after one un-recorded
# warm-up run that characterizes organic.lib there; their footers enter
# the report as bench.fig13_width_performance and
# bench.fig14_width_area. `mc_characterize --mc-samples 4 --mc-seed 1`
# runs in the same directory and enters as bench.mc_characterize, the
# figure-level point for the device/circuit/liberty layers. perf_suite
# ingests footers in the invocation that runs the scenario set, so
# these runs come just before it.
#
# Usage: scripts/bench.sh [build-dir] [results-dir]
#
# Environment:
#   OTFT_BENCH_REPS    repetitions per scenario (default 5)
#   OTFT_BENCH_WARMUP  warmup reps per scenario (default 1)
set -euo pipefail

BUILD_DIR="${1:-build}"
RESULTS_DIR="${2:-bench-results}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"

cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" >/dev/null
cmake --build "${BUILD_DIR}" -j "${JOBS}" --target perf_suite perf_diff \
    fig13_width_performance fig14_width_area mc_characterize

mkdir -p "${RESULTS_DIR}"

# Next unused sequence number in the results directory.
seq=1
while [ -e "${RESULTS_DIR}/BENCH_${seq}.json" ]; do
    seq=$((seq + 1))
done
out="${RESULTS_DIR}/BENCH_${seq}.json"

bench_bin="$(cd "${BUILD_DIR}/bench" && pwd)"
fig_dir="$(mktemp -d)"
trap 'rm -rf "${fig_dir}"' EXIT
footers="${fig_dir}/footers.txt"
(
    cd "${fig_dir}"
    # Warm-up: characterizes organic.lib in this directory.
    "${bench_bin}/fig13_width_performance" --jobs "${JOBS}" >/dev/null
    for fig in fig13_width_performance fig14_width_area; do
        "${bench_bin}/${fig}" --jobs "${JOBS}" | tail -n 1 >>"${footers}"
    done
    "${bench_bin}/mc_characterize" --jobs "${JOBS}" --mc-samples 4 \
        --mc-seed 1 | tail -n 1 >>"${footers}"
)

"${BUILD_DIR}/bench/perf_suite" \
    --reps "${OTFT_BENCH_REPS:-5}" \
    --warmup "${OTFT_BENCH_WARMUP:-1}" \
    --ingest "${footers}" \
    --out "${out}"

echo "recorded ${out}"
prev="${RESULTS_DIR}/BENCH_$((seq - 1)).json"
if [ -e "${prev}" ]; then
    echo "comparing against ${prev}:"
    # Informational here: recording must succeed even when slower.
    "${BUILD_DIR}/bench/perf_diff" "${prev}" "${out}" || true
fi
