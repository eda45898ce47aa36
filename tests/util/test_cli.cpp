/** @file Unit tests for util/cli (the shared driver shell). */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
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

/** Clears the OTFT observability environment for the test body. */
class CleanEnv : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        setQuiet(true);
        unsetenv("OTFT_STATS");
        unsetenv("OTFT_STATS_JSON");
        unsetenv("OTFT_TRACE_JSON");
        unsetenv("OTFT_JOBS");
        unsetenv("OTFT_MC_SAMPLES");
        unsetenv("OTFT_PROFILE_PERIOD_US");
        unsetenv("OTFT_PROFILE_TOPN");
    }

    void
    TearDown() override
    {
        unsetenv("OTFT_STATS");
        unsetenv("OTFT_STATS_JSON");
        unsetenv("OTFT_TRACE_JSON");
        unsetenv("OTFT_JOBS");
        unsetenv("OTFT_MC_SAMPLES");
        unsetenv("OTFT_PROFILE_PERIOD_US");
        unsetenv("OTFT_PROFILE_TOPN");
        setQuiet(false);
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
    const std::string env_path = tmpPath("cli_env_stats.json");
    setenv("OTFT_STATS_JSON", env_path.c_str(), 1);
    setenv("OTFT_STATS", "1", 1);
    Args args({"prog"});
    {
        Session session("test", args.argc(), args.argv());
        EXPECT_EQ(session.statsJson(), env_path);
        EXPECT_TRUE(session.statsTextEnabled());
    }
    std::remove(env_path.c_str());
}

TEST_F(CliSession, FlagsTakePrecedenceOverEnvironment)
{
    const std::string env_path = tmpPath("cli_prec_env.json");
    const std::string flag_path = tmpPath("cli_prec_flag.json");
    setenv("OTFT_STATS_JSON", env_path.c_str(), 1);
    setenv("OTFT_STATS", "0", 1);
    Args args({"prog", "--stats-json", flag_path});
    {
        Session session("test", args.argc(), args.argv());
        EXPECT_EQ(session.statsJson(), flag_path);
        // OTFT_STATS=0 means "off", not "set".
        EXPECT_FALSE(session.statsTextEnabled());
    }
    std::remove(flag_path.c_str());
}

TEST_F(CliSession, ProfileFlagsTakePrecedenceOverEnvironment)
{
    setenv("OTFT_PROFILE_PERIOD_US", "700", 1);
    setenv("OTFT_PROFILE_TOPN", "9", 1);
    {
        Args args({"prog"});
        Session session("test", args.argc(), args.argv());
        EXPECT_EQ(session.profilePeriodUs(), 700u);
        EXPECT_EQ(session.profileTopN(), 9);
    }
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

TEST_F(CliSession, JobsEnvironmentFallback)
{
    setenv("OTFT_JOBS", "1", 1);
    Args args({"prog"});
    Session session("test", args.argc(), args.argv());
    EXPECT_EQ(session.jobs(), 1);
}

TEST_F(CliSession, JobsEnvironmentValueIsValidatedToo)
{
    setenv("OTFT_JOBS", "0", 1);
    Args args({"prog"});
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

TEST_F(CliSession, McSamplesEnvironmentAboveIntMaxIsFatal)
{
    setenv("OTFT_MC_SAMPLES", "3000000000", 1);
    Args args({"prog"});
    EXPECT_THROW(Session("test", args.argc(), args.argv()),
                 FatalError);
}

TEST_F(CliSession, JobsFlagBeatsEnvironment)
{
    // The env value is invalid; with the flag present it must never
    // even be parsed.
    setenv("OTFT_JOBS", "not-a-number", 1);
    Args args({"prog", "--jobs", "1"});
    Session session("test", args.argc(), args.argv());
    EXPECT_EQ(session.jobs(), 1);
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
