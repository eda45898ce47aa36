/**
 * @file
 * Compare two BENCH_*.json reports by the paired rule of
 * perf::diffReports and exit nonzero when a scenario regressed.
 * scripts/bench.sh runs it on the reports of two builds recorded in
 * alternating rounds.
 *
 * Usage:
 *   perf_diff BASELINE.json CURRENT.json
 *
 * Exit codes: 0 no regressions, 1 a regression, 2 usage or I/O error.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "util/logging.hpp"
#include "util/perf_report.hpp"

using namespace otft;

namespace {

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
        std::fprintf(stderr,
                     "usage: perf_diff BASELINE.json CURRENT.json\n");
        return 2;
    }
    const std::string baseline_path = argv[1];
    const std::string current_path = argv[2];

    try {
        const auto baseline = load(baseline_path);
        const auto current = load(current_path);
        const auto diff = perf::diffReports(baseline, current);
        perf::renderDiff(diff, std::cout);
        return diff.regressions > 0 ? 1 : 0;
    } catch (const FatalError &) {
        return 2;
    }
}
