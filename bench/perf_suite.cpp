/**
 * @file
 * The perf flight recorder front-end: runs the registered scenario
 * suite (every layer of the paper flow), prints a timing/counter
 * table, and writes the canonical schema-versioned BENCH_*.json
 * report that perf_diff compares.
 *
 * Usage:
 *   perf_suite [--reps N] [--warmup N] [--filter SUBSTR]
 *              [--out FILE.json] [--ingest FOOTERS.txt] [--list]
 *              [--profile] [--profile-dir DIR]
 *
 * --out onto a report of the same build (git SHA) appends the run as
 * one more round (perf::appendReport); scripts/bench.sh records its
 * rounds this way.
 *
 * --profile runs the sampling profiler across each scenario's timed
 * reps and writes one `PROF_<scenario>.folded` collapsed-stack file
 * per scenario (under --profile-dir, default cwd), ready for
 * flamegraph.pl / speedscope. The sampling period and the rows of the
 * top-frames report come from the shared session flags
 * --profile-period-us and --profile-topn (see util/cli).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "scenarios.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/perf_report.hpp"
#include "util/table.hpp"

using namespace otft;

namespace {

void
usage()
{
    std::fprintf(
        stderr,
        "usage: perf_suite [--reps N] [--warmup N] [--filter SUBSTR]\n"
        "                  [--out FILE.json] [--ingest FOOTERS.txt]\n"
        "                  [--list] [--profile] [--profile-dir DIR]\n");
}

std::uint64_t
parseCount(const char *text, const char *what)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0')
        fatal("perf_suite: ", what, " expects a count, got '", text,
              "'");
    return static_cast<std::uint64_t>(v);
}

void
printResults(const std::vector<perf::ScenarioResult> &results)
{
    Table table({"scenario", "reps", "min", "median", "MAD", "p95",
                 "points", "counters"});
    for (const auto &r : results) {
        table.row()
            .add(r.name)
            .add(static_cast<long long>(r.timing.reps))
            .add(formatSi(r.timing.minS, "s"))
            .add(formatSi(r.timing.medianS, "s"))
            .add(formatSi(r.timing.madS, "s"))
            .add(formatSi(r.timing.p95S, "s"))
            .add(static_cast<long long>(r.points))
            .add(static_cast<long long>(r.counters.size()));
    }
    table.render(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    cli::Session session("perf_suite", argc, argv);

    perf::SuiteOptions options;
    options.profilePeriodUs = session.profilePeriodUs();
    options.profileTopN = session.profileTopN();
    std::string out_path;
    std::string ingest_path;
    bool list_only = false;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (std::strcmp(arg, "--reps") == 0 && has_value) {
            options.reps = parseCount(argv[++i], "--reps");
        } else if (std::strcmp(arg, "--warmup") == 0 && has_value) {
            options.warmup = parseCount(argv[++i], "--warmup");
        } else if (std::strcmp(arg, "--filter") == 0 && has_value) {
            options.filter = argv[++i];
        } else if (std::strcmp(arg, "--out") == 0 && has_value) {
            out_path = argv[++i];
        } else if (std::strcmp(arg, "--ingest") == 0 && has_value) {
            ingest_path = argv[++i];
        } else if (std::strcmp(arg, "--profile") == 0) {
            options.profile = true;
        } else if (std::strcmp(arg, "--profile-dir") == 0 &&
                   has_value) {
            options.profileDir = argv[++i];
        } else if (std::strcmp(arg, "--list") == 0) {
            list_only = true;
        } else {
            usage();
            return 2;
        }
    }
    perf::ScenarioSuite suite;
    bench::registerAllScenarios(suite);

    if (list_only) {
        Table table({"scenario", "layer", "description"});
        for (const auto &s : suite.scenarios())
            table.row().add(s.name).add(s.layer).add(s.description);
        table.render(std::cout);
        return 0;
    }

    perf::BenchReport report;
    report.reps = options.reps;
    report.warmup = options.warmup;
    report.env = perf::currentEnvironment();
    report.scenarios = suite.run(options);
    if (report.scenarios.empty())
        fatal("perf_suite: no scenario matches filter '",
              options.filter, "'");

    if (!ingest_path.empty()) {
        std::ifstream is(ingest_path);
        if (!is)
            fatal("perf_suite: cannot read ", ingest_path);
        const auto footers = perf::ingestFooters(is);
        inform("ingested ", footers.size(), " bench footer(s) from ",
               ingest_path);
        report.scenarios.insert(report.scenarios.end(),
                                footers.begin(), footers.end());
    }

    printResults(report.scenarios);

    if (!out_path.empty()) {
        perf::appendReport(out_path, report);
        inform("wrote ", out_path);
    } else {
        perf::writeReport(report, std::cout);
    }
    return 0;
}
