/**
 * @file
 * Compare two BENCH_*.json reports under the MAD-based noise gate and
 * exit nonzero when a regression clears it — the enforcement half of
 * the perf flight recorder (scripts/perf_gate.sh and the perf_smoke
 * ctest label wrap this binary).
 *
 * Usage:
 *   perf_diff BASELINE.json CURRENT.json
 *
 * The gate is fixed (see perf::diffReports): a median wall time that
 * moves by more than max(10 %, 3 MAD, 20 us), or a counter that moves
 * by more than 2 %, is flagged.
 *
 * Exit codes: 0 no regressions, 1 regressions past the gate,
 * 2 usage or I/O error.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "util/logging.hpp"
#include "util/perf_report.hpp"

using namespace otft;

namespace {

void
usage()
{
    std::fprintf(stderr,
                 "usage: perf_diff BASELINE.json CURRENT.json\n");
}

perf::BenchReport
load(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("perf_diff: cannot read ", path);
    return perf::readReport(is);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 3 || argv[1][0] == '-' || argv[2][0] == '-') {
        usage();
        return 2;
    }
    const std::string baseline_path = argv[1];
    const std::string current_path = argv[2];

    try {
        const auto baseline = load(baseline_path);
        const auto current = load(current_path);
        if (baseline.env.gitSha != current.env.gitSha)
            inform("comparing ", baseline.env.gitSha, " -> ",
                   current.env.gitSha);
        const auto diff = perf::diffReports(baseline, current);
        perf::renderDiff(diff, std::cout);
        return diff.regressions > 0 ? 1 : 0;
    } catch (const FatalError &) {
        return 2;
    }
}
