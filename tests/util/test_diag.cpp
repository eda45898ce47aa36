/**
 * @file
 * Unit tests for the solver diagnostics sink: the per-context
 * breakdown of registry counters under labelled contexts, the dump
 * registry cap, and the otft-diag-3 JSON export.
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

TEST_F(DiagTest, DisabledCollectorCountsOnlyInTheRegistry)
{
    Collector::instance().setEnabled(false);
    EXPECT_FALSE(Collector::instance().dumpsEnabled());

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
    {
        trace::Scope ctx(trace::labelled, label("ctx.a"));
        testCounter().add(2);
    }
    {
        // A label the writer must escape.
        trace::Scope ctx(trace::labelled, label("weird \"key\"\n"));
        testCounter().add(5);
    }
    testCounter().add();
    c.setMaxDumps(1);
    EXPECT_TRUE(c.recordDump("dumps/dump_1.json"));
    EXPECT_FALSE(c.recordDump("dumps/dump_2.json"));

    std::ostringstream os;
    c.dumpJson(os);
    const json::Value doc = json::parse(os.str());
    EXPECT_EQ(doc.string("schema"), diagSchema);
    EXPECT_FALSE(doc.has("attributes"));

    const auto &contexts = doc.at("contexts");
    ASSERT_TRUE(contexts.has("ctx.a"));
    EXPECT_EQ(contexts.at("ctx.a").number("test.diag.events"), 2.0);
    ASSERT_TRUE(contexts.has("weird \"key\"\n"));
    EXPECT_EQ(contexts.at("weird \"key\"\n").number("test.diag.events"),
              5.0);
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
    testCounter().add();
    c.recordDump("d.json");
    c.reset();
    EXPECT_TRUE(c.breakdown().empty());
    EXPECT_TRUE(c.dumpPaths().empty());
    EXPECT_TRUE(c.enabled()); // reset clears data, not configuration
}

} // namespace
} // namespace otft::diag
