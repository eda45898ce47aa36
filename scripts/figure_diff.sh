#!/usr/bin/env bash
# Compare what two builds print: run the figure and extension binaries
# of each build in a fresh directory, then report every difference in
# their stdout (apart from the footer's "wall_s" value) and in the
# .lib files they write. Use it to show that a refactor moves no
# printed number and no library byte.
#
# Each build runs fig03-08, fig11-15 and every ext_* at --jobs 4, then
# `mc_characterize --mc-samples 4 --mc-seed 1` and yield_sweep in the
# same directory, so yield_sweep loads the corner triple just written.
# About 10 s per build on a 4-vCPU host.
#
# Then the new build's set runs twice more with one fresh --cache-dir
# (cache cold = warm = off): a cold pass in one fresh directory, which
# fills the cache, and a warm pass in a second fresh directory, which
# rebuilds organic.lib, organic_dntt.lib and the Monte Carlo triple
# from the cached arc points. Every stdout and .lib of both passes
# must equal the new build's plain run. The cache file's entries by
# domain and its size are printed.
#
# Usage: scripts/figure_diff.sh <base-build-dir> <new-build-dir>
#
# Exit status: 0 when every output matches; 1 on any difference or on
# a binary that exits non-zero; 2 on bad usage.
set -uo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 <base-build-dir> <new-build-dir>" >&2
    exit 2
fi

work="$(mktemp -d)"
trap 'rm -rf "${work}"' EXIT
status=0

# run_one <bin-dir> <run-dir> <out-dir> <binary> [args...]: run one
# binary in <run-dir> with an empty environment (only PATH), its stdout
# (wall_s masked) to <out-dir>/<binary>.
run_one() {
    local bin="$1" dir="$2" out="$3" name="$4"
    shift 4
    if ! (cd "${dir}" && env -i PATH="$PATH" "${bin}/${name}" "$@" \
            >"${out}/${name}.raw" 2>"${out}/${name}.err"); then
        echo "FAIL: ${bin}/${name} exited non-zero; stderr tail:" >&2
        tail -n 5 "${out}/${name}.err" >&2
        status=1
    fi
    sed -E 's/("wall_s": *)[-+.0-9eE]+/\1<masked>/' \
        "${out}/${name}.raw" >"${out}/${name}"
    rm -f "${out}/${name}.raw"
}

# run_build <label> <build-dir> [args...]: every binary of one build,
# each given [args...], in ${work}/<label>/run with stdouts in
# ${work}/<label>/out.
run_build() {
    local label="$1" build="$2" bin
    if ! bin="$(cd "${build}/bench" 2>/dev/null && pwd)"; then
        echo "FAIL: no bench/ directory in build ${build}" >&2
        exit 1
    fi
    shift 2
    local dir="${work}/${label}/run" out="${work}/${label}/out"
    mkdir -p "${dir}" "${out}"
    local path
    for path in "${bin}"/fig0[3-8]_* "${bin}"/fig1[1-5]_* "${bin}"/ext_*; do
        [ -x "${path}" ] || continue
        run_one "${bin}" "${dir}" "${out}" "$(basename "${path}")" \
            --jobs 4 "$@"
    done
    run_one "${bin}" "${dir}" "${out}" mc_characterize --jobs 4 \
        --mc-samples 4 --mc-seed 1 "$@"
    run_one "${bin}" "${dir}" "${out}" yield_sweep --jobs 4 "$@"
    echo "ran $(ls "${out}" | grep -vc '\.err$') binaries of ${build}" \
        "(${label})" >&2
}

# names <label-a> <label-b> <subdir> <pattern>: file names matching
# <pattern> in either run's <subdir>, so a file only one run wrote
# counts as a difference.
names() {
    find "${work}/$1/$3" "${work}/$2/$3" -maxdepth 1 -type f \
        -name "$4" ! -name '*.err' -printf '%f\n' | sort -u
}

# compare <label-a> <label-b>: diff every stdout and cmp every .lib
# of two runs; sets status=1 on any difference.
compare() {
    local a="$1" b="$2" name lib
    for name in $(names "${a}" "${b}" out '*'); do
        if ! diff -u --label "${a}/${name}" --label "${b}/${name}" \
                "${work}/${a}/out/${name}" "${work}/${b}/out/${name}"; then
            status=1
        fi
    done
    libs=0
    for lib in $(names "${a}" "${b}" run '*.lib'); do
        libs=$((libs + 1))
        if ! cmp "${work}/${a}/run/${lib}" "${work}/${b}/run/${lib}"; then
            status=1
        fi
    done
}

run_build base "$1"
run_build new "$2"
compare base new

cache="${work}/cache"
run_build cold "$2" --cache-dir "${cache}"
run_build warm "$2" --cache-dir "${cache}"
compare new cold
compare new warm
file="${cache}/result_cache.json"
if [ -f "${file}" ]; then
    # Keys are "<domain>:<16 hex digits>"; count them by domain.
    domains="$(grep -o '"[a-z.]*:[0-9a-f]\{16\}"' "${file}" |
        cut -d: -f1 | tr -d '"' | sort | uniq -c |
        awk '{ n += $1; s = s ", " $2 " " $1 }
             END { print n " entries (" substr(s, 3) ")" }')"
    echo "cache file: ${domains}, $(wc -c <"${file}") bytes"
else
    echo "FAIL: the cached passes left no ${file}" >&2
    status=1
fi

if [ "${status}" -eq 0 ]; then
    echo "no difference: every stdout and all ${libs} .lib files match," \
        "with the cache off, cold and warm"
else
    echo "DIFFERENCES FOUND" >&2
fi
exit "${status}"
