#!/usr/bin/env bash
# Tier-1 verification: configure (warnings as errors), build, and run
# the tier1-labelled test suite. This is the gate every change must
# pass; CI runs exactly this script.
#
# Usage: scripts/verify.sh [--tsan|--asan|--diag|--profile|--mc]
#        [build-dir]
#
#   --tsan   build with -fsanitize=thread into <build-dir>-tsan and
#            run the concurrency-labelled tests under it
#   --asan   build with -fsanitize=address into <build-dir>-asan and
#            run the full tier1 label under it
#   --diag   observability smoke lane: run a short perf_suite pass
#            with --diag-json enabled, then validate the report with
#            `diag_replay --check-diag`. Catches bit-rot in the
#            telemetry plumbing without touching tier-1.
#   --profile  profiler smoke lane: run one scenario under the
#            sampling profiler and check the folded flamegraph artifact
#            is non-empty; run one bench with both the timeline and the
#            profiler on and check it writes a non-empty trace and
#            folded file and a footer whose otft-prof-2 section counts
#            at least one sample (needs python3); then run the
#            profile_smoke-labelled ctest suite. Wall-clock sensitive,
#            so opt-in rather than tier-1.
#   --mc     Monte Carlo smoke lane: run the mc_smoke-labelled ctest
#            suite (full-roster 16-sample statistical
#            characterization), then run bench/mc_characterize end to
#            end, writing the three corner .lib artifacts,
#            re-validating them from disk with --check, and running
#            bench/yield_sweep on them. Tens of seconds of solver
#            time, so opt-in rather than tier-1.
#
# The sanitizer lanes keep their own build trees so the default tree
# stays warm for the plain gate.
#
# Two builds are compared separately, against a build of the parent
# commit: scripts/figure_diff.sh <base-build> <new-build> diffs the
# stdout of every figure and extension binary and cmps every .lib they
# write, so a refactor moves no printed number (and requires the same
# outputs from the new build with one --cache-dir, cold and warm), and
# scripts/bench.sh compare <base-build> <new-build> times them.
set -euo pipefail

SANITIZE=""
LANE_SUFFIX=""
TEST_LABEL="tier1"
LANE=""
case "${1:-}" in
--tsan)
    SANITIZE="thread"
    LANE_SUFFIX="-tsan"
    TEST_LABEL="concurrency"
    shift
    ;;
--asan)
    SANITIZE="address"
    LANE_SUFFIX="-asan"
    shift
    ;;
--diag | --profile | --mc)
    LANE="$1"
    shift
    ;;
-*)
    # An unknown option is not a build directory: print the usage
    # block above and fail.
    awk '/^# Usage:/ { p = 1 } /^# The sanitizer lanes/ { exit }
        p { sub(/^# ?/, ""); print }' "$0" >&2
    exit 2
    ;;
esac

BUILD_DIR="${1:-build}${LANE_SUFFIX}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"

cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" -DOTFT_WERROR=ON \
    -DOTFT_SANITIZE="${SANITIZE}"
cmake --build "${BUILD_DIR}" -j "${JOBS}"

if [[ "${LANE}" == "--diag" ]]; then
    cmake --build "${BUILD_DIR}" -j "${JOBS}" \
        --target perf_suite diag_replay
    DIAG_OUT="${BUILD_DIR}/diag_smoke.json"
    # A short circuit-only pass with solver diagnostics on.
    "${BUILD_DIR}/bench/perf_suite" --reps 1 --warmup 0 \
        --filter circuit \
        --diag-json "${DIAG_OUT}"
    "${BUILD_DIR}/bench/diag_replay" --check-diag "${DIAG_OUT}"
    echo "diag lane ok"
    exit 0
fi

if [[ "${LANE}" == "--profile" ]]; then
    cmake --build "${BUILD_DIR}" -j "${JOBS}" \
        --target perf_suite fig12_alu_depth test_profile_smoke
    PROF_DIR="${BUILD_DIR}/prof_smoke"
    mkdir -p "${PROF_DIR}"
    # Suite path: one profiled scenario must leave a non-empty folded
    # flamegraph artifact. One rep lasts a few milliseconds, so run
    # twenty to give the 1 ms sampler work to see.
    "${BUILD_DIR}/bench/perf_suite" --reps 20 --warmup 0 \
        --filter liberty.nldm_characterize_par \
        --profile --profile-dir "${PROF_DIR}"
    FOLDED="${PROF_DIR}/PROF_liberty_nldm_characterize_par.folded"
    if [ ! -s "${FOLDED}" ]; then
        echo "error: ${FOLDED} missing or empty" >&2
        exit 1
    fi
    # Session and combined path: one run feeds the timeline and the
    # profiler from the same per-thread records, pool workers
    # included. fig12 runs long enough for the 1 ms sampler. The trace
    # must parse as a JSON array with at least one event, the folded
    # file be non-empty, and the footer line carry an otft-prof-2
    # section with at least one sample.
    FIG12_BIN="$(cd "${BUILD_DIR}/bench" && pwd)/fig12_alu_depth"
    (cd "${PROF_DIR}" && "${FIG12_BIN}" --trace-json both.json \
        --profile-folded both.folded >both.out)
    if ! python3 -c 'import json, sys
footers = [json.loads(line) for line in open(sys.argv[1])
           if line.startswith("{\"bench\"")]
profile = footers[-1].get("profile", {}) if footers else {}
sys.exit(0 if profile.get("schema") == "otft-prof-2"
         and profile.get("samples", 0) >= 1 else 1)' \
        "${PROF_DIR}/both.out"; then
        echo "error: fig12 footer has no otft-prof-2 section with" \
            "samples >= 1" >&2
        exit 1
    fi
    if ! python3 -c 'import json, sys
events = json.load(open(sys.argv[1]))
sys.exit(0 if isinstance(events, list) and events else 1)' \
        "${PROF_DIR}/both.json"; then
        echo "error: both.json is not a non-empty JSON array" >&2
        exit 1
    fi
    if [ ! -s "${PROF_DIR}/both.folded" ]; then
        echo "error: both.folded missing or empty" >&2
        exit 1
    fi
    ctest --test-dir "${BUILD_DIR}" -L profile_smoke \
        --output-on-failure -j "${JOBS}"
    echo "profile lane ok"
    exit 0
fi

if [[ "${LANE}" == "--mc" ]]; then
    cmake --build "${BUILD_DIR}" -j "${JOBS}" \
        --target mc_characterize yield_sweep test_mc_smoke
    ctest --test-dir "${BUILD_DIR}" -L mc_smoke \
        --output-on-failure -j "${JOBS}"
    MC_DIR="${BUILD_DIR}/mc_smoke_artifacts"
    mkdir -p "${MC_DIR}"
    # End-to-end artifact path: characterize 16 samples, write the
    # three corner libraries, reload and validate them from disk, then
    # hand them to their one consumer, yield_sweep.
    "${BUILD_DIR}/bench/mc_characterize" --mc-samples 16 --mc-seed 1 \
        --out-prefix "${MC_DIR}/organic_mc"
    for corner in mean slow fast; do
        if [ ! -s "${MC_DIR}/organic_mc_${corner}.lib" ]; then
            echo "error: organic_mc_${corner}.lib missing" >&2
            exit 1
        fi
    done
    "${BUILD_DIR}/bench/mc_characterize" \
        --out-prefix "${MC_DIR}/organic_mc" --check
    YIELD_BIN="$(cd "${BUILD_DIR}/bench" && pwd)/yield_sweep"
    YIELD_LOG="${MC_DIR}/yield_sweep.out"
    (cd "${MC_DIR}" && "${YIELD_BIN}" --jobs "${JOBS}") \
        | tee "${YIELD_LOG}"
    if ! grep -qF 'loaded cached organic_mc_{mean,slow,fast}.lib' \
        "${YIELD_LOG}"; then
        echo "error: yield_sweep did not load the corner libraries" >&2
        exit 1
    fi
    if ! grep -qF '"organic_f_yield"' "${YIELD_LOG}"; then
        echo "error: yield_sweep footer has no organic_f_yield" >&2
        exit 1
    fi
    echo "mc lane ok"
    exit 0
fi

ctest --test-dir "${BUILD_DIR}" -L "${TEST_LABEL}" \
    --output-on-failure -j "${JOBS}"
