/** @file Unit tests for util/cli (the shared driver shell). */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "util/perf_report.hpp"

namespace otft::cli {
namespace {

/** Mutable argv for Session's in-place flag consumption. */
class Args
{
  public:
    explicit Args(std::vector<std::string> words) : storage(words)
    {
        for (std::string &w : storage)
            pointers.push_back(w.data());
        pointers.push_back(nullptr);
        argc_ = static_cast<int>(storage.size());
    }

    int &argc() { return argc_; }
    char **argv() { return pointers.data(); }
    const char *at(int i) const { return pointers[static_cast<std::size_t>(i)]; }

  private:
    std::vector<std::string> storage;
    std::vector<char *> pointers;
    int argc_ = 0;
};

/**
 * Variables that once doubled the flags, each with a value the flag
 * would reject or that differs from its default. Session ignores them.
 */
const std::pair<const char *, const char *> removedVariables[] = {
    {"OTFT_STATS", "1"},
    {"OTFT_JOBS", "0"},
    {"OTFT_CACHE_DIR", "/nonexistent-dir-otft/cache"},
    {"OTFT_DIAG_JSON", "/nonexistent-dir-otft/diag.json"},
    {"OTFT_DIAG_DIR", "/nonexistent-dir-otft/diag"},
    {"OTFT_PROFILE_FOLDED", "/nonexistent-dir-otft/prof.folded"},
    {"OTFT_PROFILE_PERIOD_US", "0"},
    {"OTFT_PROFILE_TOPN", "-1"},
    {"OTFT_MC_SAMPLES", "3000000000"},
    {"OTFT_MC_SEED", "-5"},
    {"OTFT_MC_YIELD", "1.5"},
};

/** Clears the environment Session reads (or once read). */
class CleanEnv : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        setQuiet(true);
        clearEnv();
    }

    void
    TearDown() override
    {
        clearEnv();
        setQuiet(false);
    }

    static void
    clearEnv()
    {
        unsetenv("OTFT_STATS_JSON");
        unsetenv("OTFT_TRACE_JSON");
        for (const auto &[name, value] : removedVariables)
            unsetenv(name);
    }

    std::string
    tmpPath(const char *name) const
    {
        return ::testing::TempDir() + name;
    }
};

using CliSession = CleanEnv;

TEST_F(CliSession, ConsumesObservabilityFlagsOnly)
{
    const std::string stats_path = tmpPath("cli_flags_stats.json");
    Args args({"prog", "--alpha", "--stats-json", stats_path,
               "--stats", "positional"});
    {
        Session session("test", args.argc(), args.argv());
        EXPECT_TRUE(session.statsTextEnabled());
        EXPECT_EQ(session.statsJson(), stats_path);
        EXPECT_TRUE(session.traceJson().empty());
    }
    // The driver's own arguments survive in order.
    ASSERT_EQ(args.argc(), 3);
    EXPECT_STREQ(args.at(0), "prog");
    EXPECT_STREQ(args.at(1), "--alpha");
    EXPECT_STREQ(args.at(2), "positional");
    std::remove(stats_path.c_str());
}

TEST_F(CliSession, EnvironmentFillsInWhenFlagsAbsent)
{
    const std::string stats_path = tmpPath("cli_env_stats.json");
    const std::string trace_path = tmpPath("cli_env_trace.json");
    setenv("OTFT_STATS_JSON", stats_path.c_str(), 1);
    setenv("OTFT_TRACE_JSON", trace_path.c_str(), 1);
    Args args({"prog"});
    {
        Session session("test", args.argc(), args.argv());
        EXPECT_EQ(session.statsJson(), stats_path);
        EXPECT_EQ(session.traceJson(), trace_path);
    }
    std::remove(stats_path.c_str());
    std::remove(trace_path.c_str());
}

TEST_F(CliSession, FlagsTakePrecedenceOverEnvironment)
{
    const std::string env_stats = tmpPath("cli_prec_env.json");
    const std::string flag_stats = tmpPath("cli_prec_flag.json");
    const std::string env_trace = tmpPath("cli_prec_env_trace.json");
    const std::string flag_trace = tmpPath("cli_prec_flag_trace.json");
    setenv("OTFT_STATS_JSON", env_stats.c_str(), 1);
    setenv("OTFT_TRACE_JSON", env_trace.c_str(), 1);
    Args args({"prog", "--stats-json", flag_stats, "--trace-json",
               flag_trace});
    {
        Session session("test", args.argc(), args.argv());
        EXPECT_EQ(session.statsJson(), flag_stats);
        EXPECT_EQ(session.traceJson(), flag_trace);
    }
    std::remove(flag_stats.c_str());
    std::remove(flag_trace.c_str());
}

TEST_F(CliSession, RemovedVariablesAreIgnored)
{
    for (const auto &[name, value] : removedVariables)
        setenv(name, value, 1);
    Args args({"prog"});
    Session session("test", args.argc(), args.argv());
    EXPECT_FALSE(session.statsTextEnabled());
    EXPECT_EQ(session.jobs(), parallel::hardwareJobs());
    EXPECT_TRUE(session.cacheDirectory().empty());
    EXPECT_TRUE(session.diagJson().empty());
    EXPECT_TRUE(session.diagDirectory().empty());
    EXPECT_TRUE(session.profileFolded().empty());
    EXPECT_EQ(session.profilePeriodUs(), 1000u);
    EXPECT_EQ(session.profileTopN(), 5);
    EXPECT_EQ(session.mcSamples(), 16);
    EXPECT_EQ(session.mcSeed(), 1u);
    EXPECT_DOUBLE_EQ(session.mcYield(), 0.99);
}

TEST_F(CliSession, ProfileFlagsSetPeriodAndTopN)
{
    Args args({"prog", "--profile-period-us", "200", "--profile-topn",
               "3"});
    Session session("test", args.argc(), args.argv());
    EXPECT_EQ(session.profilePeriodUs(), 200u);
    EXPECT_EQ(session.profileTopN(), 3);
}

TEST_F(CliSession, UnwritableStatsPathIsFatalAtConstruction)
{
    Args args({"prog", "--stats-json",
               "/nonexistent-dir-otft/stats.json"});
    EXPECT_THROW(Session("test", args.argc(), args.argv()),
                 FatalError);
}

TEST_F(CliSession, UnwritableTracePathIsFatalAtConstruction)
{
    Args args({"prog", "--trace-json",
               "/nonexistent-dir-otft/trace.json"});
    EXPECT_THROW(Session("test", args.argc(), args.argv()),
                 FatalError);
}

TEST_F(CliSession, MissingFlagValueIsFatal)
{
    Args args({"prog", "--stats-json"});
    EXPECT_THROW(Session("test", args.argc(), args.argv()),
                 FatalError);
}

TEST_F(CliSession, FooterIsCanonicalParseableJson)
{
    Args args({"prog"});
    ::testing::internal::CaptureStdout();
    {
        Session session("footer_test", args.argc(), args.argv(),
                        Footer::On);
        session.setPoints(21);
        session.addFooterField("f_max_hz", 210.25);
    }
    const std::string out = ::testing::internal::GetCapturedStdout();
    const json::Value footer = json::parse(out);
    EXPECT_EQ(footer.string("bench"), "footer_test");
    EXPECT_EQ(footer.string("schema"), perf::footerSchema);
    EXPECT_GE(footer.number("wall_s"), 0.0);
    EXPECT_DOUBLE_EQ(footer.number("points"), 21.0);
    EXPECT_DOUBLE_EQ(footer.number("f_max_hz"), 210.25);

    // The footer is exactly what perf_suite --ingest consumes.
    std::istringstream is(out);
    const auto ingested = perf::ingestFooters(is);
    ASSERT_EQ(ingested.size(), 1u);
    EXPECT_EQ(ingested[0].name, "bench.footer_test");
    EXPECT_DOUBLE_EQ(ingested[0].counters.at("f_max_hz"), 210.25);
}

TEST_F(CliSession, JobsFlagParsedConsumedAndInstalled)
{
    Args args({"prog", "--jobs", "1", "positional"});
    {
        Session session("test", args.argc(), args.argv());
        EXPECT_EQ(session.jobs(), 1);
        // The resolved count is installed process-wide.
        EXPECT_EQ(parallel::jobs(), 1);
    }
    ASSERT_EQ(args.argc(), 2);
    EXPECT_STREQ(args.at(0), "prog");
    EXPECT_STREQ(args.at(1), "positional");
}

TEST_F(CliSession, JobsDefaultsToHardwareConcurrency)
{
    Args args({"prog"});
    Session session("test", args.argc(), args.argv());
    EXPECT_EQ(session.jobs(), parallel::hardwareJobs());
}

TEST_F(CliSession, JobsAboveHardwareIsClampedNotFatal)
{
    Args args({"prog", "--jobs", "1000000"});
    Session session("test", args.argc(), args.argv());
    EXPECT_EQ(session.jobs(), parallel::hardwareJobs());
}

TEST_F(CliSession, JobsRejectsZeroNegativeAndGarbage)
{
    for (const char *bad : {"0", "-1", "-8", "abc", "3x", "", "2.5"}) {
        Args args({"prog", "--jobs", bad});
        EXPECT_THROW(Session("test", args.argc(), args.argv()),
                     FatalError)
            << "--jobs " << bad;
    }
}

TEST_F(CliSession, JobsMissingValueIsFatal)
{
    Args args({"prog", "--jobs"});
    EXPECT_THROW(Session("test", args.argc(), args.argv()),
                 FatalError);
}

TEST_F(CliSession, CountsAboveIntMaxAreFatalNotTruncated)
{
    // 3000000000 used to wrap to a negative int and 4294967298 (2^32
    // + 2) to 2; both must be rejected, not silently narrowed.
    for (const char *flag : {"--mc-samples", "--jobs"}) {
        for (const char *big : {"2147483648", "3000000000",
                                "4294967298"}) {
            Args args({"prog", flag, big});
            EXPECT_THROW(Session("test", args.argc(), args.argv()),
                         FatalError)
                << flag << " " << big;
        }
    }
}

TEST_F(CliSession, McSamplesAcceptsIntMax)
{
    Args args({"prog", "--mc-samples", "2147483647"});
    Session session("test", args.argc(), args.argv());
    EXPECT_EQ(session.mcSamples(), 2147483647);
}

TEST_F(CliSession, StatsJsonIsWrittenOnExit)
{
    const std::string path = tmpPath("cli_exit_stats.json");
    Args args({"prog", "--stats-json", path});
    {
        Session session("test", args.argc(), args.argv());
    }
    std::ifstream is(path);
    ASSERT_TRUE(is.good());
    std::stringstream ss;
    ss << is.rdbuf();
    EXPECT_NE(ss.str().find("{"), std::string::npos);
    std::remove(path.c_str());
}

} // namespace
} // namespace otft::cli
