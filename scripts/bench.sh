#!/usr/bin/env bash
# Time prebuilt builds: the one way to compare two builds, and to
# record a point of the performance trajectory.
#
# Usage: scripts/bench.sh compare <base-build-dir> <new-build-dir>
#        scripts/bench.sh record <build-dir> [results-dir]
#
# compare runs `ctest -L perf_smoke` on the new build, then 10 rounds
# of both builds, alternating which runs first, and exits with the
# status of perf_diff on their reports (1 on a regression). record
# writes the next BENCH_<n>.json in results-dir (default
# bench-results) from 10 rounds of one build. Each build runs in its
# own fresh directory, where an untimed fig13 run first characterizes
# organic.lib. A round is fig13, fig14, `mc_characterize
# --mc-samples 4 --mc-seed 1` and one rep of every perf_suite scenario,
# which ingests the three footers and appends the round to the build's
# report: about 4 s per round and build on a 4-vCPU host.
set -euo pipefail

ROUNDS=10
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
work="$(mktemp -d)"
trap 'rm -rf "${work}"' EXIT

# prepare <label> <build-dir>: check that the build has every binary a
# round runs, and characterize organic.lib in ${work}/<label>.
prepare() {
    local name
    for name in perf_suite perf_diff fig13_width_performance \
        fig14_width_area mc_characterize; do
        if [ ! -x "$2/bench/${name}" ]; then
            echo "bench.sh: build $2 lacks bench/${name}" >&2
            exit 2
        fi
    done
    mkdir "${work}/$1"
    ln -s "$(cd "$2/bench" && pwd)" "${work}/$1.bin"
    (cd "${work}/$1" && ../"$1.bin"/fig13_width_performance \
        --jobs "${JOBS}" >/dev/null)
}

# round <label>: one round of that build, appended to ${work}/<label>.json.
round() (
    cd "${work}/$1"
    local bin="../$1.bin" fig
    : >footers.txt
    for fig in fig13_width_performance fig14_width_area; do
        "${bin}/${fig}" --jobs "${JOBS}" | tail -n 1 >>footers.txt
    done
    "${bin}/mc_characterize" --jobs "${JOBS}" --mc-samples 4 \
        --mc-seed 1 | tail -n 1 >>footers.txt
    OTFT_LOG_LEVEL=warn "${bin}/perf_suite" --reps 1 --warmup 1 \
        --ingest footers.txt --out "../$1.json" >/dev/null
)

case "${1:-} $#" in
"compare 3")
    prepare base "$2"
    prepare new "$3"
    ctest --test-dir "$3" -L perf_smoke --no-tests=error \
        --output-on-failure
    for ((r = 1; r <= ROUNDS; ++r)); do
        order="base new"
        ((r % 2)) || order="new base"
        for side in ${order}; do round "${side}"; done
        echo "bench.sh: round ${r}/${ROUNDS} done" >&2
    done
    "${work}/new.bin/perf_diff" "${work}/base.json" "${work}/new.json"
    ;;
"record 2" | "record 3")
    results="${3:-bench-results}"
    prepare run "$2"
    for ((r = 1; r <= ROUNDS; ++r)); do
        round run
        echo "bench.sh: round ${r}/${ROUNDS} done" >&2
    done
    seq=1
    while [ -e "${results}/BENCH_${seq}.json" ]; do seq=$((seq + 1)); done
    mkdir -p "${results}"
    cp "${work}/run.json" "${results}/BENCH_${seq}.json"
    echo "recorded ${results}/BENCH_${seq}.json"
    ;;
*)
    echo "usage: $0 compare <base-build> <new-build>" >&2
    echo "       $0 record <build> [results-dir]" >&2
    exit 2
    ;;
esac
