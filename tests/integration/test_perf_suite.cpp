/**
 * @file
 * Perf flight recorder smoke test (ctest label: perf_smoke, not
 * tier-1): the registered scenario set covers every flow layer, a
 * short run produces sane timings plus nonzero counter deltas, the
 * report round-trips through the canonical JSON, and an injected
 * slowdown is flagged by the paired diff.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "scenarios.hpp"
#include "util/logging.hpp"
#include "util/perf_report.hpp"

namespace otft {
namespace {

/** Enough reps for the paired rule's 9-of-10 verdict. */
constexpr std::uint64_t suiteReps = 10;

class PerfSuite : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        setQuiet(true);
        perf::ScenarioSuite suite;
        bench::registerAllScenarios(suite);
        perf::SuiteOptions options;
        options.reps = suiteReps;
        options.warmup = 1;
        report = new perf::BenchReport();
        report->reps = options.reps;
        report->warmup = options.warmup;
        report->env = perf::currentEnvironment();
        report->scenarios = suite.run(options);
    }

    static void
    TearDownTestSuite()
    {
        delete report;
        report = nullptr;
        setQuiet(false);
    }

    static perf::BenchReport *report;
};

perf::BenchReport *PerfSuite::report = nullptr;

TEST_F(PerfSuite, CoversEveryFlowLayer)
{
    perf::ScenarioSuite suite;
    bench::registerAllScenarios(suite);
    EXPECT_GE(suite.scenarios().size(), 9u);
    std::set<std::string> layers;
    for (const auto &s : suite.scenarios())
        layers.insert(s.layer);
    for (const char *layer :
         {"device", "circuit", "cells", "liberty", "netlist", "sta",
          "workload", "arch", "core"})
        EXPECT_TRUE(layers.count(layer)) << "missing layer " << layer;
}

TEST_F(PerfSuite, EveryScenarioTimesAndCounts)
{
    ASSERT_GE(report->scenarios.size(), 9u);
    for (const auto &s : report->scenarios) {
        SCOPED_TRACE(s.name);
        EXPECT_EQ(s.timing.reps, suiteReps);
        EXPECT_GT(s.timing.minS, 0.0);
        EXPECT_GE(s.timing.p95S, s.timing.medianS);
        EXPECT_GE(s.timing.medianS, s.timing.minS);
        EXPECT_GT(s.points, 0u);
        // The layer's own instrumentation moved during the run.
        EXPECT_FALSE(s.counters.empty());
        for (const auto &[name, delta] : s.counters)
            EXPECT_GT(delta, 0.0) << name;
    }
}

TEST_F(PerfSuite, ReportRoundTripsAndSelfDiffsClean)
{
    std::stringstream ss;
    perf::writeReport(*report, ss);
    const perf::BenchReport parsed = perf::readReport(ss);
    ASSERT_EQ(parsed.scenarios.size(), report->scenarios.size());
    EXPECT_EQ(parsed.env.gitSha, report->env.gitSha);

    const perf::DiffReport diff = perf::diffReports(*report, parsed);
    EXPECT_EQ(diff.regressions, 0);
    EXPECT_EQ(diff.improvements, 0);
}

TEST_F(PerfSuite, InjectedSlowdownTripsTheGate)
{
    perf::BenchReport slowed = *report;
    // Slow down every rep of the scenario with the smallest measured
    // relative spread (madS / medianS). The rule needs the median gap
    // above the baseline's interquartile range, so the 4x slowdown
    // clears it by the widest margin there; the longest median is not
    // the steadiest on a loaded host.
    const auto spread = [](const perf::ScenarioResult &s) {
        return s.timing.madS / s.timing.medianS;
    };
    auto victim_it = slowed.scenarios.begin();
    for (auto it = slowed.scenarios.begin();
         it != slowed.scenarios.end(); ++it)
        if (spread(*it) < spread(*victim_it))
            victim_it = it;
    auto &victim = *victim_it;
    for (double &sample : victim.samplesS)
        sample *= 4.0;
    victim.timing = perf::summarizeTimes(victim.samplesS);

    const perf::DiffReport diff = perf::diffReports(*report, slowed);
    EXPECT_GE(diff.regressions, 1);
    bool flagged = false;
    for (const auto &entry : diff.entries)
        if (entry.scenario == victim.name &&
            entry.metric == "wall_s" &&
            entry.status == perf::DiffStatus::Regressed)
            flagged = true;
    EXPECT_TRUE(flagged);

    // And the reverse direction is an improvement, exit-code clean.
    const perf::DiffReport reverse =
        perf::diffReports(slowed, *report);
    EXPECT_EQ(reverse.regressions, 0);
    EXPECT_GE(reverse.improvements, 1);
}

} // namespace
} // namespace otft
