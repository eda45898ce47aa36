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

# run_build <label> <build-dir>: every binary of one build, in
# ${work}/<label>/run with stdouts in ${work}/<label>/out.
run_build() {
    local label="$1" bin
    if ! bin="$(cd "$2/bench" 2>/dev/null && pwd)"; then
        echo "FAIL: no bench/ directory in build $2" >&2
        exit 1
    fi
    local dir="${work}/${label}/run" out="${work}/${label}/out"
    mkdir -p "${dir}" "${out}"
    local path
    for path in "${bin}"/fig0[3-8]_* "${bin}"/fig1[1-5]_* "${bin}"/ext_*; do
        [ -x "${path}" ] || continue
        run_one "${bin}" "${dir}" "${out}" "$(basename "${path}")" \
            --jobs 4
    done
    run_one "${bin}" "${dir}" "${out}" mc_characterize --jobs 4 \
        --mc-samples 4 --mc-seed 1
    run_one "${bin}" "${dir}" "${out}" yield_sweep --jobs 4
    echo "ran $(ls "${out}" | grep -vc '\.err$') binaries of $2" >&2
}

run_build base "$1"
run_build new "$2"

# names <subdir> <pattern>: file names matching <pattern> in either
# build's <subdir>, so a file only one build wrote counts as a
# difference.
names() {
    find "${work}/base/$1" "${work}/new/$1" -maxdepth 1 -type f \
        -name "$2" ! -name '*.err' -printf '%f\n' | sort -u
}

for name in $(names out '*'); do
    if ! diff -u --label "base/${name}" --label "new/${name}" \
            "${work}/base/out/${name}" "${work}/new/out/${name}"; then
        status=1
    fi
done

libs=0
for lib in $(names run '*.lib'); do
    libs=$((libs + 1))
    if ! cmp "${work}/base/run/${lib}" "${work}/new/run/${lib}"; then
        status=1
    fi
done

if [ "${status}" -eq 0 ]; then
    echo "no difference: every stdout and all ${libs} .lib files match"
else
    echo "DIFFERENCES FOUND" >&2
fi
exit "${status}"
