/**
 * @file
 * Unit tests for the solver diagnostics sink: collector aggregation
 * under labelled contexts, the per-solve probe ring, the dump registry
 * cap, and the otft-diag-1 JSON export.
 */

#include <cmath>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "util/diag.hpp"
#include "util/json.hpp"
#include "util/trace.hpp"

namespace otft::diag {
namespace {

/** A labelled trace::Scope builder for a fixed label. */
auto
label(const char *text)
{
    return [text] { return std::string(text); };
}

/** Every test runs against a clean, enabled collector. */
class DiagTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        Collector::instance().reset();
        Collector::instance().setEnabled(true);
    }

    void TearDown() override
    {
        Collector::instance().reset();
        Collector::instance().setMaxDumps(32);
        Collector::instance().setEnabled(false);
    }
};

TEST_F(DiagTest, DisabledCollectorKeepsProbesInert)
{
    Collector::instance().setEnabled(false);
    SolveProbe probe(SolveKind::Dc);
    EXPECT_FALSE(probe.active());
    EXPECT_FALSE(probe.wantsDump());
    probe.iteration(0, 1.0, 1.0, false);
    probe.finish(false);
    EXPECT_EQ(Collector::instance().contextCount(), 0u);
    EXPECT_TRUE(probe.trace().empty());
}

TEST_F(DiagTest, ProbePublishesAggregateOnFinish)
{
    {
        trace::Scope ctx(trace::labelled, label("unit.ctx"));
        SolveProbe probe(SolveKind::Dc);
        ASSERT_TRUE(probe.active());
        probe.iteration(0, 2.0, 1.0, false);
        probe.iteration(1, 0.5, 0.25, true);
        probe.jacobianRefresh();
        probe.finish(true);
    }
    const ContextStats s =
        Collector::instance().contextStats("unit.ctx");
    EXPECT_EQ(s.solves, 1u);
    EXPECT_EQ(s.failures, 0u);
    EXPECT_EQ(s.iterations, 2u);
    EXPECT_EQ(s.chordIterations, 1u);
    EXPECT_EQ(s.jacobianRefreshes, 1u);
    EXPECT_EQ(s.maxIterations, 2);
    EXPECT_EQ(s.worstFinalResidual, 0.0);
}

TEST_F(DiagTest, FailedSolveTracksWorstResidual)
{
    {
        SolveProbe probe(SolveKind::TransientStep);
        probe.iteration(0, 7.5, 3.0, false);
        probe.finish(false);
    }
    {
        SolveProbe probe(SolveKind::TransientStep);
        probe.iteration(0, 2.0, 1.0, false);
        // Destructor closes an unfinished probe as failed.
    }
    const ContextStats s = Collector::instance().contextStats("");
    EXPECT_EQ(s.solves, 2u);
    EXPECT_EQ(s.failures, 2u);
    EXPECT_EQ(s.worstFinalResidual, 7.5);
    EXPECT_EQ(s.maxIterations, 0);
}

TEST_F(DiagTest, NonFiniteFailureResidualBecomesInfinity)
{
    SolveProbe probe(SolveKind::Dc);
    probe.iteration(0, std::numeric_limits<double>::quiet_NaN(), 1.0,
                    false);
    probe.finish(false);
    const ContextStats s = Collector::instance().contextStats("");
    EXPECT_TRUE(std::isinf(s.worstFinalResidual));
}

TEST_F(DiagTest, EventsAggregateUnderCurrentContext)
{
    trace::Scope ctx(trace::labelled, label("transient.test"));
    recordEvent(Event::StepAccept);
    recordEvent(Event::StepAccept);
    recordEvent(Event::StepReject);
    recordEvent(Event::NewtonRetry);
    recordEvent(Event::SourceStepping);
    recordEvent(Event::GminStepping);
    const ContextStats s =
        Collector::instance().contextStats("transient.test");
    EXPECT_EQ(s.stepAccepts, 2u);
    EXPECT_EQ(s.stepRejects, 1u);
    EXPECT_EQ(s.newtonRetries, 1u);
    EXPECT_EQ(s.sourceStepping, 1u);
    EXPECT_EQ(s.gminStepping, 1u);
}

TEST_F(DiagTest, ProbeRingKeepsTheLastIterations)
{
    SolveProbe probe(SolveKind::Dc);
    const int n = static_cast<int>(SolveProbe::ringCapacity) + 10;
    for (int i = 0; i < n; ++i)
        probe.iteration(i, 1.0 / (1 + i), 0.5 / (1 + i), i % 2 == 1);
    const auto trace = probe.trace();
    ASSERT_EQ(trace.size(), SolveProbe::ringCapacity);
    // Chronological order, ending at the final iteration.
    EXPECT_EQ(trace.front().iteration,
              n - static_cast<int>(SolveProbe::ringCapacity));
    EXPECT_EQ(trace.back().iteration, n - 1);
    for (std::size_t i = 1; i < trace.size(); ++i)
        EXPECT_EQ(trace[i].iteration, trace[i - 1].iteration + 1);
    probe.finish(true);
}

TEST_F(DiagTest, DumpRegistryCapsAndDedupes)
{
    Collector &c = Collector::instance();
    c.setMaxDumps(2);
    EXPECT_TRUE(c.recordDump("a.json"));
    EXPECT_TRUE(c.recordDump("a.json")); // dedupe, not a new slot
    EXPECT_TRUE(c.recordDump("b.json"));
    EXPECT_FALSE(c.recordDump("c.json")); // over the cap
    const auto paths = c.dumpPaths();
    ASSERT_EQ(paths.size(), 2u);
    EXPECT_EQ(paths[0], "a.json");
    EXPECT_EQ(paths[1], "b.json");
}

TEST_F(DiagTest, DumpJsonRoundTripsThroughParser)
{
    Collector &c = Collector::instance();
    c.setAttribute("explorer.seed", 42.0);
    c.setAttribute("weird \"key\"\n", 1.0);
    {
        trace::Scope ctx(trace::labelled, label("ctx.a"));
        SolveProbe probe(SolveKind::Dc);
        probe.iteration(0, 1.0, 0.5, false);
        probe.finish(true);
    }
    {
        SolveProbe probe(SolveKind::Dc);
        probe.iteration(0, 3.0, 2.0, false);
        probe.finish(false);
    }
    c.setMaxDumps(1);
    EXPECT_TRUE(c.recordDump("dumps/dump_1.json"));
    EXPECT_FALSE(c.recordDump("dumps/dump_2.json"));

    std::ostringstream os;
    c.dumpJson(os);
    const json::Value doc = json::parse(os.str());
    EXPECT_EQ(doc.string("schema"), diagSchema);
    EXPECT_EQ(doc.at("attributes").number("explorer.seed"), 42.0);
    EXPECT_EQ(doc.at("attributes").number("weird \"key\"\n"), 1.0);

    const auto &contexts = doc.at("contexts");
    ASSERT_TRUE(contexts.has("ctx.a"));
    EXPECT_EQ(contexts.at("ctx.a").number("solves"), 1.0);
    EXPECT_EQ(contexts.at("ctx.a").number("failures"), 0.0);
    ASSERT_TRUE(contexts.has("(unlabeled)"));
    EXPECT_EQ(contexts.at("(unlabeled)").number("failures"), 1.0);
    EXPECT_EQ(contexts.at("(unlabeled)")
                  .number("worst_final_residual"),
              3.0);

    EXPECT_EQ(doc.number("dumps_skipped"), 1.0);
    ASSERT_EQ(doc.at("dumps").asArray().size(), 1u);
    EXPECT_EQ(doc.at("dumps").asArray()[0].asString(),
              "dumps/dump_1.json");
}

TEST_F(DiagTest, ResetDropsEverything)
{
    Collector &c = Collector::instance();
    c.setAttribute("k", 1.0);
    c.recordEvent("ctx", Event::StepAccept);
    c.recordDump("d.json");
    c.reset();
    EXPECT_EQ(c.contextCount(), 0u);
    EXPECT_TRUE(c.dumpPaths().empty());
    EXPECT_TRUE(c.attributes().empty());
    EXPECT_TRUE(c.enabled()); // reset clears data, not configuration
}

} // namespace
} // namespace otft::diag
