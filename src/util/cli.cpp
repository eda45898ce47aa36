#include "util/cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>

#include "util/diag.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "util/perf_report.hpp"
#include "util/profiler.hpp"
#include "util/result_cache.hpp"
#include "util/stats_registry.hpp"
#include "util/trace.hpp"

namespace otft::cli {

namespace {

/**
 * Remove argv[i] (and optionally its value argument) from argv,
 * shifting the tail down and shrinking argc.
 */
void
consumeArgs(int &argc, char **argv, int i, int count)
{
    for (int k = i; k + count < argc; ++k)
        argv[k] = argv[k + count];
    argc -= count;
}

/**
 * Fail fast on an unwritable report path. Probing in append mode
 * creates a missing file without clobbering an existing one; the real
 * write happens at session exit.
 */
void
validateWritable(const std::string &path, const char *flag)
{
    std::ofstream probe(path, std::ios::app);
    if (!probe)
        fatal("cli: cannot open '", path, "' for writing (", flag,
              ")");
}

/**
 * Parse a strictly positive decimal integer that fits in an int;
 * fatal otherwise (a silent narrowing would wrap 3000000000 negative
 * or turn 4294967298 into 2).
 */
int
parsePositiveInt(const std::string &text, const char *source)
{
    std::size_t consumed = 0;
    long value = 0;
    try {
        value = std::stol(text, &consumed);
    } catch (const std::exception &) {
        fatal("cli: ", source, " must be a positive integer, got '",
              text, "'");
    }
    if (consumed != text.size())
        fatal("cli: ", source, " must be a positive integer, got '",
              text, "'");
    if (value < 1)
        fatal("cli: ", source, " must be >= 1, got ", value);
    if (value > std::numeric_limits<int>::max())
        fatal("cli: ", source, " must be <= ",
              std::numeric_limits<int>::max(), ", got ", value);
    return static_cast<int>(value);
}

/** Parse a non-negative decimal uint64 (RNG seed); fatal otherwise. */
std::uint64_t
parseSeed(const std::string &text, const char *source)
{
    std::size_t consumed = 0;
    unsigned long long value = 0;
    try {
        value = std::stoull(text, &consumed);
    } catch (const std::exception &) {
        fatal("cli: ", source, " must be a non-negative integer, "
              "got '", text, "'");
    }
    if (consumed != text.size() || text[0] == '-')
        fatal("cli: ", source, " must be a non-negative integer, "
              "got '", text, "'");
    return static_cast<std::uint64_t>(value);
}

/** Parse a yield fraction strictly inside (0, 1); fatal otherwise. */
double
parseYield(const std::string &text, const char *source)
{
    std::size_t consumed = 0;
    double value = 0.0;
    try {
        value = std::stod(text, &consumed);
    } catch (const std::exception &) {
        fatal("cli: ", source, " must be a number in (0, 1), got '",
              text, "'");
    }
    if (consumed != text.size() || !(value > 0.0 && value < 1.0))
        fatal("cli: ", source, " must lie strictly in (0, 1), got '",
              text, "'");
    return value;
}

/**
 * Parse and validate a --jobs value: a positive decimal
 * integer, clamped to the hardware concurrency. 0, negative, or
 * non-numeric input is fatal (a silent fallback would quietly run a
 * sweep serial or oversubscribed).
 */
int
parseJobs(const std::string &text, const char *source)
{
    const int value = parsePositiveInt(text, source);
    const int hw = parallel::hardwareJobs();
    if (value > hw) {
        warn("cli: ", source, "=", value, " exceeds the ", hw,
             " hardware threads; clamping");
        return hw;
    }
    return static_cast<int>(value);
}

} // namespace

Session::Session(std::string name_in, int &argc, char **argv,
                 Footer footer_in)
    : name(std::move(name_in)), footer(footer_in == Footer::On),
      startNs(stats::monotonicNowNs())
{
    int i = 1;
    while (i < argc) {
        const char *arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (std::strcmp(arg, "--stats") == 0) {
            statsText = true;
            consumeArgs(argc, argv, i, 1);
        } else if (std::strcmp(arg, "--stats-json") == 0) {
            if (!has_value)
                fatal("cli: --stats-json requires a path");
            statsJsonPath = argv[i + 1];
            consumeArgs(argc, argv, i, 2);
        } else if (std::strcmp(arg, "--trace-json") == 0) {
            if (!has_value)
                fatal("cli: --trace-json requires a path");
            traceJsonPath = argv[i + 1];
            consumeArgs(argc, argv, i, 2);
        } else if (std::strcmp(arg, "--jobs") == 0) {
            if (!has_value)
                fatal("cli: --jobs requires a count");
            jobs_ = parseJobs(argv[i + 1], "--jobs");
            consumeArgs(argc, argv, i, 2);
        } else if (std::strcmp(arg, "--cache-dir") == 0) {
            if (!has_value)
                fatal("cli: --cache-dir requires a directory");
            cacheDir = argv[i + 1];
            consumeArgs(argc, argv, i, 2);
        } else if (std::strcmp(arg, "--diag-json") == 0) {
            if (!has_value)
                fatal("cli: --diag-json requires a path");
            diagJsonPath = argv[i + 1];
            consumeArgs(argc, argv, i, 2);
        } else if (std::strcmp(arg, "--diag-dir") == 0) {
            if (!has_value)
                fatal("cli: --diag-dir requires a directory");
            diagDir = argv[i + 1];
            consumeArgs(argc, argv, i, 2);
        } else if (std::strcmp(arg, "--profile-folded") == 0) {
            if (!has_value)
                fatal("cli: --profile-folded requires a path");
            profilePath = argv[i + 1];
            consumeArgs(argc, argv, i, 2);
        } else if (std::strcmp(arg, "--profile-period-us") == 0) {
            if (!has_value)
                fatal("cli: --profile-period-us requires a count");
            profilePeriod = static_cast<std::uint64_t>(
                parsePositiveInt(argv[i + 1], "--profile-period-us"));
            consumeArgs(argc, argv, i, 2);
        } else if (std::strcmp(arg, "--profile-topn") == 0) {
            if (!has_value)
                fatal("cli: --profile-topn requires a count");
            profileTop =
                parsePositiveInt(argv[i + 1], "--profile-topn");
            consumeArgs(argc, argv, i, 2);
        } else if (std::strcmp(arg, "--mc-samples") == 0) {
            if (!has_value)
                fatal("cli: --mc-samples requires a count");
            mcSamples_ =
                parsePositiveInt(argv[i + 1], "--mc-samples");
            consumeArgs(argc, argv, i, 2);
        } else if (std::strcmp(arg, "--mc-seed") == 0) {
            if (!has_value)
                fatal("cli: --mc-seed requires a seed");
            mcSeed_ = parseSeed(argv[i + 1], "--mc-seed");
            consumeArgs(argc, argv, i, 2);
        } else if (std::strcmp(arg, "--mc-yield") == 0) {
            if (!has_value)
                fatal("cli: --mc-yield requires a fraction");
            mcYield_ = parseYield(argv[i + 1], "--mc-yield");
            consumeArgs(argc, argv, i, 2);
        } else {
            ++i;
        }
    }

    // The flag wins over its variable; benchmark/otft_benchmark.cpp
    // sets these two for the runs it traces.
    if (statsJsonPath.empty())
        if (const char *env = std::getenv("OTFT_STATS_JSON"))
            statsJsonPath = env;
    if (traceJsonPath.empty())
        if (const char *env = std::getenv("OTFT_TRACE_JSON"))
            traceJsonPath = env;
    // OTFT_CACHE=0 disables the result cache (e.g. to benchmark the
    // uncached paths or bisect a suspected stale-entry problem); the
    // in-process Memo tables are not affected.
    if (const char *env = std::getenv("OTFT_CACHE"))
        if (std::strcmp(env, "0") == 0)
            cache::ResultCache::instance().setEnabled(false);

    if (jobs_ == 0)
        jobs_ = parallel::hardwareJobs();
    parallel::setJobs(jobs_);

    if (!cacheDir.empty())
        cache::ResultCache::instance().setDirectory(cacheDir);

    if (!statsJsonPath.empty())
        validateWritable(statsJsonPath, "--stats-json");
    if (!traceJsonPath.empty()) {
        validateWritable(traceJsonPath, "--trace-json");
        trace::start(traceJsonPath);
    }

    if (!diagJsonPath.empty()) {
        validateWritable(diagJsonPath, "--diag-json");
        diag::Collector::instance().setEnabled(true);
    }
    // setDumpDirectory implies setEnabled and is fatal when the
    // directory cannot be created — same policy as --cache-dir.
    if (!diagDir.empty())
        diag::Collector::instance().setDumpDirectory(diagDir);

    // Profiler last: everything the session runs gets sampled, and
    // the timeline (if any) carries a start marker so the sampled
    // window is visible next to the spans.
    if (!profilePath.empty()) {
        validateWritable(profilePath, "--profile-folded");
        trace::recordInstant("profiler.start");
        profiling = prof::Profiler::instance().start(profilePeriod);
    }
}

void
Session::addFooterField(const std::string &key, double value)
{
    footerExtras.emplace_back(key, value);
}

void
Session::addFooterJson(const std::string &key, std::string raw_json)
{
    footerRawExtras.emplace_back(key, std::move(raw_json));
}

Session::~Session()
{
    // Stop the profiler first so its pool-attribution stats reach the
    // registry before the stats reports render. The stop marker lands
    // on the still-active timeline collection.
    if (profiling) {
        trace::recordInstant("profiler.stop");
        prof::Profiler &profiler = prof::Profiler::instance();
        profiler.stop();
        std::ofstream os(profilePath);
        if (!os) {
            warn("cli: cannot write profile to ", profilePath);
        } else {
            profiler.writeFolded(os);
            inform("profile: wrote ", profiler.folded().size(),
                   " stacks (", profiler.sampleCount(),
                   " samples) to ", profilePath);
        }
        std::fprintf(stderr, "\n== profile: %s ==\n", name.c_str());
        profiler.writeTopReport(std::cerr, profileTop);
        addFooterJson("profile", profiler.footerSection(profileTop));
    }

    // Persist memoized results before reporting; flush warns rather
    // than throws on write failure.
    if (!cacheDir.empty())
        cache::ResultCache::instance().flush();

    if (!traceJsonPath.empty()) {
        // The path was probed at construction; losing it mid-run
        // (deleted directory, full disk) must not throw from a
        // destructor.
        try {
            trace::stop();
        } catch (const FatalError &) {
            warn("cli: trace timeline lost (", traceJsonPath,
                 " became unwritable)");
        }
    }

    const auto &registry = stats::Registry::instance();
    if (!statsJsonPath.empty()) {
        std::ofstream os(statsJsonPath);
        if (!os) {
            warn("cli: cannot write stats to ", statsJsonPath);
        } else {
            registry.dumpJson(os);
            inform("stats: wrote ", statsJsonPath);
        }
    }
    if (statsText) {
        std::fprintf(stderr, "\n== stats: %s ==\n", name.c_str());
        registry.dumpText(std::cerr);
    }

    if (!diagJsonPath.empty()) {
        auto &collector = diag::Collector::instance();
        std::ofstream os(diagJsonPath);
        if (!os) {
            warn("cli: cannot write diagnostics to ", diagJsonPath);
        } else {
            collector.dumpJson(os);
            inform("diag: wrote ", diagJsonPath, " (",
                   collector.breakdown().size(), " contexts, ",
                   collector.dumpPaths().size(), " dumps)");
        }
    }

    if (footer) {
        const double wall_s =
            static_cast<double>(stats::monotonicNowNs() - startNs) *
            1e-9;
        std::printf("{\"bench\": \"%s\", \"schema\": \"%s\", "
                    "\"wall_s\": %.3f, \"points\": %lld",
                    name.c_str(), perf::footerSchema, wall_s,
                    static_cast<long long>(points));
        for (const auto &[key, value] : footerExtras)
            std::printf(", \"%s\": %.6g", key.c_str(), value);
        for (const auto &[key, raw] : footerRawExtras)
            std::printf(", \"%s\": %s", key.c_str(), raw.c_str());
        std::printf("}\n");
    }
}

} // namespace otft::cli
