/** @file Unit tests for util/perf_report. */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
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

/**
 * Ten rounds around 1.0: sorted 0.96 ... 1.05 in steps of 0.01, so the
 * median is 1.005 and the quartiles 0.9825 and 1.0275 (IQR 0.045).
 */
std::vector<double>
tenRounds(double scale)
{
    std::vector<double> samples;
    for (double v :
         {1.00, 1.04, 0.97, 1.02, 0.99, 1.05, 0.96, 1.01, 0.98, 1.03})
        samples.push_back(v * scale);
    return samples;
}

/** A two-scenario report of ten rounds with controlled timings. */
BenchReport
makeReport(double median_scale, double arcs)
{
    BenchReport report;
    report.reps = 10;
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
    fast.samplesS = tenRounds(0.010 * median_scale);
    fast.timing = summarizeTimes(fast.samplesS);
    fast.counters["sta.arcs.evaluated"] = arcs;

    ScenarioResult slow;
    slow.name = "unit.slow";
    slow.layer = "unit";
    slow.description = "a slow scenario";
    slow.points = 99;
    slow.samplesS = tenRounds(1.0);
    slow.timing = summarizeTimes(slow.samplesS);

    report.scenarios = {fast, slow};
    return report;
}

/** The entry of one scenario's metric; fails the test when absent. */
DiffEntry
entryFor(const DiffReport &diff, const std::string &scenario,
         const std::string &metric)
{
    for (const DiffEntry &entry : diff.entries)
        if (entry.scenario == scenario && entry.metric == metric)
            return entry;
    ADD_FAILURE() << "no entry " << scenario << "/" << metric;
    return {};
}

TEST(PerfReport, WriteReadRoundTrips)
{
    const BenchReport original = makeReport(1.0, 1000.0);
    std::stringstream ss;
    writeReport(original, ss);
    const BenchReport parsed = readReport(ss);

    EXPECT_EQ(parsed.reps, 10u);
    EXPECT_EQ(parsed.warmup, 1u);
    EXPECT_EQ(parsed.env.gitSha, "abc1234");
    EXPECT_EQ(parsed.env.compiler, "testc++ 1.0");
    EXPECT_EQ(parsed.env.cpuCount, 4);
    ASSERT_EQ(parsed.scenarios.size(), 2u);
    const ScenarioResult &s = parsed.scenarios[0];
    EXPECT_EQ(s.name, "unit.fast");
    EXPECT_EQ(s.layer, "unit");
    EXPECT_EQ(s.points, 10u);
    EXPECT_EQ(s.timing.reps, 10u);
    EXPECT_DOUBLE_EQ(s.timing.medianS, 0.01005);
    ASSERT_EQ(s.samplesS.size(), 10u);
    EXPECT_DOUBLE_EQ(s.samplesS[1], 0.0104);
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

TEST(PerfReport, IngestFootersMergesSameNameInLineOrder)
{
    std::istringstream is(
        "{\"bench\": \"fig13\", \"wall_s\": 1.5, \"points\": 6, "
        "\"f_max_hz\": 200}\n"
        "{\"bench\": \"fig14\", \"wall_s\": 0.5, \"points\": 6}\n"
        "{\"bench\": \"fig13\", \"wall_s\": 1.25, \"points\": 6, "
        "\"f_max_hz\": 210}\n");
    const auto results = ingestFooters(is);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].name, "bench.fig13");
    EXPECT_EQ(results[0].samplesS, (std::vector<double>{1.5, 1.25}));
    EXPECT_EQ(results[0].timing.reps, 2u);
    EXPECT_DOUBLE_EQ(results[0].counters.at("f_max_hz"), 205.0);
    EXPECT_EQ(results[1].samplesS, (std::vector<double>{0.5}));
}

TEST(PerfReport, AppendReportAddsRoundsAndRefusesForeignReports)
{
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("otft_perf_report_append." + std::to_string(::getpid()) +
          ".json"))
            .string();
    std::filesystem::remove(path);
    const auto read_back = [&path] {
        std::ifstream is(path);
        return readReport(is);
    };

    // Two one-rep rounds: the second appends to the first, in order.
    BenchReport round = makeReport(1.0, 1000.0);
    round.reps = 1;
    for (ScenarioResult &s : round.scenarios)
        s.samplesS.resize(1);
    appendReport(path, round);
    round.scenarios[0].samplesS = {0.5};
    round.scenarios[0].counters["sta.arcs.evaluated"] = 3000.0;
    round.scenarios[0].counters["sta.new.counter"] = 4.0;
    appendReport(path, round);
    const BenchReport merged = read_back();
    EXPECT_EQ(merged.reps, 2u);
    ASSERT_EQ(merged.scenarios.size(), 2u);
    const ScenarioResult &fast = merged.scenarios[0];
    EXPECT_EQ(fast.samplesS, (std::vector<double>{0.010, 0.5}));
    EXPECT_EQ(fast.timing.reps, 2u);
    // Counters are per-rep means; a counter that did not move in one
    // round counts as zero there.
    EXPECT_DOUBLE_EQ(fast.counters.at("sta.arcs.evaluated"), 2000.0);
    EXPECT_DOUBLE_EQ(fast.counters.at("sta.new.counter"), 2.0);

    // Another build's run must neither merge nor overwrite the file.
    BenchReport foreign = round;
    foreign.env.gitSha = "def5678";
    EXPECT_THROW(appendReport(path, foreign), FatalError);
    EXPECT_EQ(read_back().scenarios[0].samplesS.size(), 2u);

    // Nor may a run overwrite a file that is not a report.
    std::ofstream(path) << "not json\n";
    EXPECT_THROW(appendReport(path, round), FatalError);
    std::ifstream is(path);
    std::string text;
    std::getline(is, text);
    EXPECT_EQ(text, "not json");
    std::filesystem::remove(path);
}

TEST(PerfReport, DiffIdenticalRoundsAreClean)
{
    const BenchReport report = makeReport(1.0, 1000.0);
    const DiffReport diff = diffReports(report, report);
    EXPECT_EQ(diff.regressions, 0);
    EXPECT_EQ(diff.improvements, 0);
    for (const DiffEntry &entry : diff.entries)
        EXPECT_EQ(entry.status, DiffStatus::Unchanged);
}

TEST(PerfReport, DiffFlagsFourfoldSlowdownInEveryRound)
{
    const BenchReport baseline = makeReport(1.0, 1000.0);
    // 4x slower in every round and 5% more arc evaluations: both
    // rules trip.
    const BenchReport current = makeReport(4.0, 1050.0);
    const DiffReport diff = diffReports(baseline, current);
    EXPECT_EQ(diff.regressions, 2);
    const DiffEntry wall = entryFor(diff, "unit.fast", "wall_s");
    EXPECT_EQ(wall.status, DiffStatus::Regressed);
    EXPECT_EQ(wall.losses, 10u);
    EXPECT_EQ(wall.pairs, 10u);
    EXPECT_EQ(entryFor(diff, "unit.fast", "sta.arcs.evaluated").status,
              DiffStatus::Regressed);

    // The reverse comparison is an improvement, not a regression.
    const DiffReport reverse = diffReports(current, baseline);
    EXPECT_EQ(reverse.regressions, 0);
    EXPECT_EQ(reverse.improvements, 2);
    EXPECT_EQ(entryFor(reverse, "unit.fast", "wall_s").wins, 10u);
}

TEST(PerfReport, DiffDriftInsideBaselineIqrIsOk)
{
    const BenchReport baseline = makeReport(1.0, 1000.0);
    // 4% slower in all ten pairs, but the 0.40 ms median gap is inside
    // the baseline's 0.45 ms IQR; the counter moved by less than its
    // 2% floor-of-one threshold.
    const BenchReport current = makeReport(1.04, 1000.5);
    const DiffReport diff = diffReports(baseline, current);
    EXPECT_EQ(diff.regressions, 0);
    EXPECT_EQ(diff.improvements, 0);
    EXPECT_EQ(entryFor(diff, "unit.fast", "wall_s").losses, 10u);
}

TEST(PerfReport, DiffEightOfTenLossesIsOkWhateverTheGap)
{
    const BenchReport baseline = makeReport(1.0, 1000.0);
    BenchReport current = baseline;
    // Eight rounds twice as slow, two twice as fast: the median gap is
    // far above the IQR, but 8/10 is short of 9/10.
    std::vector<double> &samples = current.scenarios[1].samplesS;
    for (std::size_t i = 0; i < samples.size(); ++i)
        samples[i] *= i < 8 ? 2.0 : 0.5;
    current.scenarios[1].timing = summarizeTimes(samples);
    const DiffReport diff = diffReports(baseline, current);
    EXPECT_EQ(diff.regressions, 0);
    const DiffEntry wall = entryFor(diff, "unit.slow", "wall_s");
    EXPECT_EQ(wall.losses, 8u);
    EXPECT_EQ(wall.status, DiffStatus::Unchanged);
}

TEST(PerfReport, DiffRuleIsNineOfTenPairsPastBaselineIqrOrTwoPercent)
{
    const BenchReport baseline = makeReport(1.0, 1000.0);
    // unit.slow: IQR 0.045 s. The current side wins the round at the
    // baseline's fastest sample (index 6, 0.96 s) and loses the other
    // nine by `gap`, so its median is higher by exactly `gap`.
    const auto slowed_by = [&baseline](double gap) {
        BenchReport current = baseline;
        std::vector<double> &samples = current.scenarios[1].samplesS;
        for (std::size_t i = 0; i < samples.size(); ++i)
            samples[i] += i == 6 ? -0.01 : gap;
        current.scenarios[1].timing = summarizeTimes(samples);
        return entryFor(diffReports(baseline, current), "unit.slow",
                        "wall_s");
    };
    const DiffEntry above = slowed_by(0.046);
    EXPECT_NEAR(above.baselineIqr, 0.045, 1e-12);
    EXPECT_EQ(above.losses, 9u);
    EXPECT_EQ(above.wins, 1u);
    EXPECT_EQ(above.status, DiffStatus::Regressed);
    EXPECT_EQ(slowed_by(0.044).status, DiffStatus::Unchanged);

    // Counters: 2 % of the baseline (never below one) per rep.
    const auto counter_status = [&baseline](double base, double cur) {
        BenchReport before = baseline;
        BenchReport after = baseline;
        before.scenarios[0].counters["sta.arcs.evaluated"] = base;
        after.scenarios[0].counters["sta.arcs.evaluated"] = cur;
        for (const DiffEntry &entry : diffReports(before, after).entries)
            if (entry.metric == "sta.arcs.evaluated")
                return entry.status;
        return DiffStatus::Unchanged;
    };
    EXPECT_EQ(counter_status(1000.0, 1020.0), DiffStatus::Unchanged);
    EXPECT_EQ(counter_status(1000.0, 1021.0), DiffStatus::Regressed);
    EXPECT_EQ(counter_status(1000.0, 979.0), DiffStatus::Improved);
    EXPECT_EQ(counter_status(10.0, 11.0), DiffStatus::Unchanged);
    EXPECT_EQ(counter_status(10.0, 11.5), DiffStatus::Regressed);
}

TEST(PerfReport, DiffGivesNoWallVerdictWithoutTenPairs)
{
    const BenchReport baseline = makeReport(1.0, 1000.0);
    BenchReport current = makeReport(4.0, 1000.0);
    // Unequal counts: a 5-rep recording against ten rounds.
    current.scenarios[0].samplesS.resize(5);
    current.scenarios[0].timing =
        summarizeTimes(current.scenarios[0].samplesS);
    // Equal counts, but too few pairs for a 9-in-10 verdict.
    BenchReport short_base = baseline;
    for (BenchReport *r : {&short_base, &current}) {
        r->scenarios[1].samplesS.resize(5);
        r->scenarios[1].timing = summarizeTimes(r->scenarios[1].samplesS);
    }
    const DiffReport diff = diffReports(short_base, current);
    EXPECT_EQ(diff.regressions, 0);
    const DiffEntry fast = entryFor(diff, "unit.fast", "wall_s");
    EXPECT_EQ(fast.status, DiffStatus::Unpaired);
    // Both medians are still reported.
    EXPECT_NEAR(fast.baseline, 0.01005, 1e-12);
    EXPECT_NEAR(fast.current, 0.040, 1e-12);
    EXPECT_EQ(entryFor(diff, "unit.slow", "wall_s").status,
              DiffStatus::Unpaired);
    std::ostringstream os;
    renderDiff(diff, os);
    EXPECT_NE(os.str().find("2 unpaired"), std::string::npos);
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
