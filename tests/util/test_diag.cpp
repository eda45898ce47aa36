/**
 * @file
 * Unit tests for the solver diagnostics sink: the per-context
 * breakdown of registry counters under labelled contexts, the
 * per-solve probe ring, the dump registry cap, and the otft-diag-2
 * JSON export.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "util/diag.hpp"
#include "util/json.hpp"
#include "util/stats_registry.hpp"
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

/** A breakdown counter private to these tests. */
const Counter &
testCounter()
{
    static const Counter c("test.diag.events", "diag unit-test events");
    return c;
}

std::uint64_t
registryValue()
{
    return stats::counter("test.diag.events").value();
}

TEST_F(DiagTest, DisabledCollectorKeepsProbesInert)
{
    Collector::instance().setEnabled(false);
    SolveProbe probe;
    EXPECT_FALSE(probe.active());
    EXPECT_FALSE(probe.wantsDump());
    probe.iteration(0, 1.0, 1.0, false);
    EXPECT_TRUE(probe.trace().empty());

    // The registry still counts; only the breakdown is off.
    const std::uint64_t before = registryValue();
    testCounter().add(3);
    EXPECT_EQ(registryValue(), before + 3);
    EXPECT_TRUE(Collector::instance().breakdown().empty());
}

TEST_F(DiagTest, CounterAddsUnderTheCallingContext)
{
    const std::uint64_t before = registryValue();
    {
        trace::Scope ctx(trace::labelled, label("unit.ctx"));
        testCounter().add();
        testCounter().add(2);
        trace::Scope inner(trace::labelled, label("inner"));
        testCounter().add();
    }
    testCounter().add(4);
    testCounter().add(0); // no event, no breakdown entry

    const Collector::Breakdown b = Collector::instance().breakdown();
    ASSERT_EQ(b.size(), 3u);
    EXPECT_EQ(b.at("unit.ctx").at("test.diag.events"), 3u);
    EXPECT_EQ(b.at("unit.ctx/inner").at("test.diag.events"), 1u);
    EXPECT_EQ(b.at("").at("test.diag.events"), 4u);
    EXPECT_EQ(registryValue(), before + 8);
}

TEST_F(DiagTest, ProbeRingKeepsTheLastIterations)
{
    SolveProbe probe;
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
        testCounter().add(2);
    }
    testCounter().add();
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
    EXPECT_EQ(contexts.at("ctx.a").number("test.diag.events"), 2.0);
    ASSERT_TRUE(contexts.has("(unlabeled)"));
    EXPECT_EQ(contexts.at("(unlabeled)").number("test.diag.events"),
              1.0);

    EXPECT_EQ(doc.number("dumps_skipped"), 1.0);
    ASSERT_EQ(doc.at("dumps").asArray().size(), 1u);
    EXPECT_EQ(doc.at("dumps").asArray()[0].asString(),
              "dumps/dump_1.json");
}

TEST_F(DiagTest, ResetDropsEverything)
{
    Collector &c = Collector::instance();
    c.setAttribute("k", 1.0);
    testCounter().add();
    c.recordDump("d.json");
    c.reset();
    EXPECT_TRUE(c.breakdown().empty());
    EXPECT_TRUE(c.dumpPaths().empty());
    EXPECT_TRUE(c.attributes().empty());
    EXPECT_TRUE(c.enabled()); // reset clears data, not configuration
}

} // namespace
} // namespace otft::diag
