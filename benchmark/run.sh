#!/usr/bin/env bash
# Figure-run benchmark of the OTFT architecture flow (see README.md).
#
#   benchmark/run.sh                  every workload 5 times, interleaved,
#                                     one process per run, then one traced
#                                     run each; prints every metric and
#                                     writes build/benchmark/results.json
#   benchmark/run.sh --smoke          one run and one traced run per
#                                     workload at held-out seed 11, checks
#                                     only
#   benchmark/run.sh --update-golden  regenerate benchmark/golden/*.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                     one run; its result is the last
#                                     stdout line
#
# Everything it builds and writes lands under build/benchmark/.
set -euo pipefail

cd "$(dirname "$0")/.."
if [[ ! -f src/CMakeLists.txt ]]; then
    echo "run.sh: no src/CMakeLists.txt; run inside a full checkout" >&2
    exit 2
fi

out=build/benchmark
bin=$out/otft_benchmark
nproc=$(nproc)
jobs=$((nproc < 4 ? nproc : 4))
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
runs=5
workloads=(width_perf synth_sweep characterize warm_rerun)

mode=suite
single=()
while (($#)); do
    case $1 in
        --smoke) mode=smoke; shift ;;
        --update-golden) mode=golden; shift ;;
        --workload | --seed | --seconds | --trace)
            (($# >= 2)) || { echo "run.sh: $1 needs a value" >&2; exit 2; }
            mode=single
            single+=("$1" "$2")
            shift 2
            ;;
        *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
    esac
done

if [[ ! -f $out/CMakeCache.txt ]]; then
    cmake -S benchmark -B "$out" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$out" -j "$jobs" --target otft_benchmark >&2
mkdir -p "$out/logs" "$out/runs"

# otft_benchmark runs in a clean environment, so no OTFT_* setting of the
# caller changes what is measured, and writes its log to a file, so the
# cost of the program's stderr does not depend on where the caller
# sends it.
drive() { # log-file otft_benchmark-args...
    local log=$1
    shift
    if ! env -i PATH="$PATH" "$bin" "$@" 2>"$log"; then
        tail -n 20 "$log" >&2
        return 1
    fi
}

# One recorded run; a crashed run is recorded as one failed operation.
record() { # record-file log-file workload trace more-run-args...
    local rec=$1 log=$2 w=$3 trace=$4
    shift 4
    if ! drive "$log" run --workload "$w" --trace "$trace" "$@" \
        --record "$rec" >/dev/null; then
        echo "{\"workload\": \"$w\", \"trace\": $trace, \"result\": {\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}}" >"$rec"
    fi
}

case $mode in
    single)
        drive "$out/logs/single.log" run "${single[@]}"
        ;;
    golden)
        drive "$out/logs/golden.log" golden
        ;;
    suite | smoke)
        rm -f "$out"/runs/*.json
        if [[ $mode == suite ]]; then
            for r in $(seq 1 "$runs"); do
                for w in "${workloads[@]}"; do
                    echo "run $r/$runs: $w" >&2
                    record "$out/runs/$w.$r.json" "$out/logs/$w.$r.log" \
                        "$w" 0 --seconds "$seconds"
                done
            done
            args=(--seconds "$seconds")
        else
            for w in "${workloads[@]}"; do
                echo "smoke: $w" >&2
                record "$out/runs/$w.json" "$out/logs/$w.log" \
                    "$w" 0 --seed 11 --seconds 1
            done
            args=(--seed 11 --seconds 1)
        fi
        for w in "${workloads[@]}"; do
            echo "traced: $w" >&2
            record "$out/runs/$w.traced.json" "$out/logs/$w.traced.log" \
                "$w" 1 "${args[@]}"
        done
        drive "$out/logs/aggregate.log" aggregate \
            --out "$out/$([[ $mode == suite ]] && echo results || echo smoke).json" \
            "$out"/runs/*.json
        ;;
esac
