/** @file Unit tests for util/perf_report. */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "util/logging.hpp"
#include "util/perf_report.hpp"
#include "util/stats_registry.hpp"

namespace otft::perf {
namespace {

TEST(PerfReport, PercentileSortedInterpolatesRanks)
{
    EXPECT_DOUBLE_EQ(percentileSorted({}, 50.0), 0.0);
    EXPECT_DOUBLE_EQ(percentileSorted({7.0}, 95.0), 7.0);
    const std::vector<double> v = {1.0, 2.0, 3.0, 4.0, 5.0};
    EXPECT_DOUBLE_EQ(percentileSorted(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentileSorted(v, 50.0), 3.0);
    // rank = 0.95 * 4 = 3.8: interpolate between the 4th and 5th.
    EXPECT_DOUBLE_EQ(percentileSorted(v, 95.0), 4.8);
    EXPECT_DOUBLE_EQ(percentileSorted(v, 100.0), 5.0);
    EXPECT_DOUBLE_EQ(percentileSorted(v, 150.0), 5.0);
}

TEST(PerfReport, SummarizeTimesComputesRobustStats)
{
    const TimingSummary s = summarizeTimes({5.0, 1.0, 3.0});
    EXPECT_EQ(s.reps, 3u);
    EXPECT_DOUBLE_EQ(s.minS, 1.0);
    EXPECT_DOUBLE_EQ(s.medianS, 3.0);
    EXPECT_DOUBLE_EQ(s.meanS, 3.0);
    EXPECT_DOUBLE_EQ(s.totalS, 9.0);
    // Deviations from the median: {2, 0, 2} -> MAD 2.
    EXPECT_DOUBLE_EQ(s.madS, 2.0);
    // Sorted {1, 3, 5}, rank 1.9.
    EXPECT_DOUBLE_EQ(s.p95S, 4.8);
}

TEST(PerfReport, SuiteMeasuresCounterDeltasPerRep)
{
    ScenarioSuite suite;
    suite.add({"test.counting", "test", "bumps a counter",
               [] { stats::counter("test.perf.suite.counter"); },
               []() -> std::uint64_t {
                   stats::counter("test.perf.suite.counter") += 7;
                   return 13;
               }});
    SuiteOptions options;
    options.reps = 2;
    options.warmup = 3;
    const auto results = suite.run(options);
    ASSERT_EQ(results.size(), 1u);
    const ScenarioResult &r = results[0];
    EXPECT_EQ(r.name, "test.counting");
    EXPECT_EQ(r.points, 13u);
    EXPECT_EQ(r.timing.reps, 2u);
    ASSERT_EQ(r.samplesS.size(), 2u);
    // Warmup reps run before the registry reset, so the delta is the
    // measured reps only, normalized per rep.
    const auto it = r.counters.find("test.perf.suite.counter");
    ASSERT_NE(it, r.counters.end());
    EXPECT_DOUBLE_EQ(it->second, 7.0);
}

TEST(PerfReport, SuiteFilterSelectsBySubstring)
{
    ScenarioSuite suite;
    auto noop = []() -> std::uint64_t { return 1; };
    suite.add({"alpha.one", "alpha", "", nullptr, noop});
    suite.add({"beta.two", "beta", "", nullptr, noop});
    SuiteOptions options;
    options.reps = 1;
    options.warmup = 0;
    options.filter = "beta";
    const auto results = suite.run(options);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].name, "beta.two");
}

TEST(PerfReport, DuplicateScenarioNameIsFatal)
{
    ScenarioSuite suite;
    auto noop = []() -> std::uint64_t { return 0; };
    suite.add({"dup.name", "test", "", nullptr, noop});
    EXPECT_THROW(suite.add({"dup.name", "test", "", nullptr, noop}),
                 FatalError);
    EXPECT_THROW(suite.add({"", "test", "", nullptr, noop}),
                 FatalError);
}

/** A two-scenario report with controlled timings and counters. */
BenchReport
makeReport(double median_scale, double arcs)
{
    BenchReport report;
    report.reps = 3;
    report.warmup = 1;
    report.env.gitSha = "abc1234";
    report.env.compiler = "testc++ 1.0";
    report.env.buildType = "Release";
    report.env.os = "TestOS 1";
    report.env.cpuCount = 4;
    report.env.timestampUtc = "2026-01-01T00:00:00Z";

    ScenarioResult fast;
    fast.name = "unit.fast";
    fast.layer = "unit";
    fast.description = "a fast scenario";
    fast.points = 10;
    fast.samplesS = {0.010 * median_scale, 0.011 * median_scale,
                     0.012 * median_scale};
    fast.timing = summarizeTimes(fast.samplesS);
    fast.counters["sta.arcs.evaluated"] = arcs;

    ScenarioResult slow;
    slow.name = "unit.slow";
    slow.layer = "unit";
    slow.description = "a slow scenario";
    slow.points = 99;
    slow.samplesS = {1.0, 1.1, 1.2};
    slow.timing = summarizeTimes(slow.samplesS);

    report.scenarios = {fast, slow};
    return report;
}

TEST(PerfReport, WriteReadRoundTrips)
{
    const BenchReport original = makeReport(1.0, 1000.0);
    std::stringstream ss;
    writeReport(original, ss);
    const BenchReport parsed = readReport(ss);

    EXPECT_EQ(parsed.reps, 3u);
    EXPECT_EQ(parsed.warmup, 1u);
    EXPECT_EQ(parsed.env.gitSha, "abc1234");
    EXPECT_EQ(parsed.env.compiler, "testc++ 1.0");
    EXPECT_EQ(parsed.env.cpuCount, 4);
    ASSERT_EQ(parsed.scenarios.size(), 2u);
    const ScenarioResult &s = parsed.scenarios[0];
    EXPECT_EQ(s.name, "unit.fast");
    EXPECT_EQ(s.layer, "unit");
    EXPECT_EQ(s.points, 10u);
    EXPECT_EQ(s.timing.reps, 3u);
    EXPECT_DOUBLE_EQ(s.timing.medianS, 0.011);
    ASSERT_EQ(s.samplesS.size(), 3u);
    EXPECT_DOUBLE_EQ(s.samplesS[1], 0.011);
    EXPECT_DOUBLE_EQ(s.counters.at("sta.arcs.evaluated"), 1000.0);
}

TEST(PerfReport, ReadRejectsWrongSchema)
{
    std::istringstream bad("{\"schema\": \"other-1\", \"reps\": 1}");
    EXPECT_THROW(readReport(bad), FatalError);
    std::istringstream missing("{\"reps\": 1}");
    EXPECT_THROW(readReport(missing), FatalError);
}

TEST(PerfReport, IngestFootersSkipsNoiseAndKeepsExtras)
{
    std::istringstream is(
        "some log line\n"
        "{\"bench\": \"fig11\", \"schema\": \"otft-bench-footer-1\", "
        "\"wall_s\": 2.5, \"points\": 14, \"f_max_hz\": 210.5}\n"
        "{\"not\": \"a footer\"}\n"
        "{broken json\n"
        "{\"bench\": \"fig13\", \"schema\": \"otft-bench-footer-1\", "
        "\"wall_s\": 0.75, \"points\": 6}\n");
    const auto results = ingestFooters(is);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].name, "bench.fig11");
    EXPECT_EQ(results[0].layer, "bench");
    EXPECT_EQ(results[0].points, 14u);
    EXPECT_DOUBLE_EQ(results[0].timing.medianS, 2.5);
    EXPECT_DOUBLE_EQ(results[0].counters.at("f_max_hz"), 210.5);
    EXPECT_EQ(results[1].name, "bench.fig13");
}

TEST(PerfReport, DiffIdentityIsClean)
{
    const BenchReport report = makeReport(1.0, 1000.0);
    const DiffReport diff = diffReports(report, report);
    EXPECT_EQ(diff.regressions, 0);
    EXPECT_EQ(diff.improvements, 0);
    for (const DiffEntry &entry : diff.entries)
        EXPECT_EQ(entry.status, DiffStatus::Unchanged);
}

TEST(PerfReport, DiffFlagsInjectedSlowdown)
{
    const BenchReport baseline = makeReport(1.0, 1000.0);
    // 1.8x slower and 5% more arc evaluations: both gates trip.
    const BenchReport current = makeReport(1.8, 1050.0);
    const DiffReport diff = diffReports(baseline, current);
    EXPECT_EQ(diff.regressions, 2);
    bool wall_flagged = false;
    bool counter_flagged = false;
    for (const DiffEntry &entry : diff.entries) {
        if (entry.status != DiffStatus::Regressed)
            continue;
        if (entry.scenario == "unit.fast" && entry.metric == "wall_s")
            wall_flagged = true;
        if (entry.metric == "sta.arcs.evaluated")
            counter_flagged = true;
    }
    EXPECT_TRUE(wall_flagged);
    EXPECT_TRUE(counter_flagged);

    // The reverse comparison is an improvement, not a regression.
    const DiffReport reverse = diffReports(current, baseline);
    EXPECT_EQ(reverse.regressions, 0);
    EXPECT_EQ(reverse.improvements, 2);
}

TEST(PerfReport, DiffNoiseGateAbsorbsSmallDrift)
{
    const BenchReport baseline = makeReport(1.0, 1000.0);
    // 4% drift: inside the 10% relative wall gate; the counter moved
    // by less than its 2% floor-of-one gate.
    const BenchReport current = makeReport(1.04, 1000.5);
    const DiffReport diff = diffReports(baseline, current);
    EXPECT_EQ(diff.regressions, 0);
    EXPECT_EQ(diff.improvements, 0);
}

TEST(PerfReport, DiffMadGateWidensForNoisySamples)
{
    BenchReport baseline = makeReport(1.0, 1000.0);
    BenchReport current = makeReport(1.0, 1000.0);
    // Very noisy baseline samples: MAD 0.5 around a 1.0 median. A
    // 1.2x median shift is real by the relative gate but inside
    // 3 x MAD, so it must not be flagged.
    baseline.scenarios[1].samplesS = {0.5, 1.0, 1.5};
    baseline.scenarios[1].timing =
        summarizeTimes(baseline.scenarios[1].samplesS);
    current.scenarios[1].samplesS = {0.7, 1.2, 1.7};
    current.scenarios[1].timing =
        summarizeTimes(current.scenarios[1].samplesS);
    const DiffReport diff = diffReports(baseline, current);
    EXPECT_EQ(diff.regressions, 0);
}

TEST(PerfReport, DiffGateIsTenPercentThreeMadTwentyMicrosOrTwoPercent)
{
    BenchReport baseline = makeReport(1.0, 1000.0);
    // unit.slow: constant 1 s samples (MAD 0), so 10 % of the median
    // is the widest gate.
    baseline.scenarios[1].samplesS = {1.0, 1.0, 1.0};
    baseline.scenarios[1].timing =
        summarizeTimes(baseline.scenarios[1].samplesS);
    // unit.tiny: 5 us, so the 20 us clock floor is.
    ScenarioResult tiny = baseline.scenarios[1];
    tiny.name = "unit.tiny";
    tiny.samplesS = {5e-6, 5e-6, 5e-6};
    tiny.timing = summarizeTimes(tiny.samplesS);
    baseline.scenarios.push_back(tiny);
    BenchReport current = baseline;
    current.scenarios[0].counters["sta.arcs.evaluated"] = 1100.0;

    std::map<std::string, double> gates;
    for (const DiffEntry &entry : diffReports(baseline, current).entries)
        gates[entry.scenario + "/" + entry.metric] = entry.gate;
    // unit.fast: median 11 ms, MAD 1 ms, so 3 MAD = 3 ms.
    EXPECT_NEAR(gates.at("unit.fast/wall_s"), 3e-3, 1e-12);
    EXPECT_NEAR(gates.at("unit.slow/wall_s"), 0.1, 1e-12);
    EXPECT_NEAR(gates.at("unit.tiny/wall_s"), 20e-6, 1e-15);
    // Counters: 2 % of the baseline (never below one).
    EXPECT_NEAR(gates.at("unit.fast/sta.arcs.evaluated"), 20.0, 1e-9);
}

TEST(PerfReport, DiffReportsAddedAndRemovedScenarios)
{
    BenchReport baseline = makeReport(1.0, 1000.0);
    BenchReport current = makeReport(1.0, 1000.0);
    baseline.scenarios[1].name = "unit.retired";
    current.scenarios[1].name = "unit.brand_new";
    const DiffReport diff = diffReports(baseline, current);
    EXPECT_EQ(diff.regressions, 0);
    bool added = false;
    bool removed = false;
    for (const DiffEntry &entry : diff.entries) {
        if (entry.status == DiffStatus::Added)
            added = entry.scenario == "unit.brand_new";
        if (entry.status == DiffStatus::Removed)
            removed = entry.scenario == "unit.retired";
    }
    EXPECT_TRUE(added);
    EXPECT_TRUE(removed);
}

TEST(PerfReport, RenderDiffPrintsVerdicts)
{
    const BenchReport baseline = makeReport(1.0, 1000.0);
    const BenchReport current = makeReport(1.8, 1050.0);
    const DiffReport diff = diffReports(baseline, current);
    std::ostringstream os;
    renderDiff(diff, os);
    EXPECT_NE(os.str().find("REGRESSED"), std::string::npos);
    EXPECT_NE(os.str().find("sta.arcs.evaluated"), std::string::npos);
    EXPECT_NE(os.str().find("2 regression(s)"), std::string::npos);
}

TEST(PerfReport, EnvironmentFingerprintIsPopulated)
{
    const EnvFingerprint env = currentEnvironment();
    EXPECT_FALSE(env.compiler.empty());
    EXPECT_FALSE(env.os.empty());
    EXPECT_FALSE(env.timestampUtc.empty());
    EXPECT_GE(env.cpuCount, 1);
    EXPECT_FALSE(env.host.empty());
    EXPECT_GE(env.jobs, 1);
}

TEST(PerfReport, HostAndJobsRoundTripThroughTheReport)
{
    BenchReport original = makeReport(1.0, 1000.0);
    original.env.host = "bench-host-a";
    original.env.jobs = 8;
    std::stringstream ss;
    writeReport(original, ss);
    const BenchReport parsed = readReport(ss);
    EXPECT_EQ(parsed.env.host, "bench-host-a");
    EXPECT_EQ(parsed.env.jobs, 8);
}

TEST(PerfReport, DiffWarnsOnMismatchedEnvironments)
{
    BenchReport baseline = makeReport(1.0, 1000.0);
    BenchReport current = makeReport(1.0, 1000.0);
    baseline.env.host = "bench-host-a";
    current.env.host = "laptop-b";
    baseline.env.jobs = 8;
    current.env.jobs = 2;
    const DiffReport diff = diffReports(baseline, current);
    // Env drift warns; it never turns a clean diff into a failure.
    EXPECT_EQ(diff.regressions, 0);
    ASSERT_GE(diff.envWarnings.size(), 2u);
    bool host_warned = false;
    bool jobs_warned = false;
    for (const std::string &warning : diff.envWarnings) {
        if (warning.find("bench-host-a") != std::string::npos &&
            warning.find("laptop-b") != std::string::npos)
            host_warned = true;
        if (warning.find("jobs") != std::string::npos)
            jobs_warned = true;
    }
    EXPECT_TRUE(host_warned);
    EXPECT_TRUE(jobs_warned);

    // The renderer surfaces the warnings.
    std::ostringstream text;
    renderDiff(diff, text);
    EXPECT_NE(text.str().find("warning: env"), std::string::npos);
}

TEST(PerfReport, DiffSkipsEnvChecksForOldReports)
{
    BenchReport baseline = makeReport(1.0, 1000.0);
    BenchReport current = makeReport(1.0, 1000.0);
    // Reports written before the fingerprint grew these fields read
    // back as "unknown"/0 and must not warn against real values.
    baseline.env.host = "unknown";
    baseline.env.jobs = 0;
    current.env.host = "bench-host-a";
    current.env.jobs = 8;
    const DiffReport diff = diffReports(baseline, current);
    EXPECT_TRUE(diff.envWarnings.empty())
        << diff.envWarnings.front();
}

TEST(PerfReport, MatchingEnvironmentsDiffWithoutWarnings)
{
    BenchReport baseline = makeReport(1.0, 1000.0);
    BenchReport current = makeReport(1.0, 1000.0);
    baseline.env.host = "bench-host-a";
    current.env.host = "bench-host-a";
    baseline.env.jobs = 8;
    current.env.jobs = 8;
    const DiffReport diff = diffReports(baseline, current);
    EXPECT_TRUE(diff.envWarnings.empty());
}

} // namespace
} // namespace otft::perf
