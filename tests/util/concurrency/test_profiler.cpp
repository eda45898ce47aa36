/**
 * @file
 * Unit tests for the sampling profiler: folded round-trip, labeled
 * stack collection, deterministic stack roots under a parallel pool,
 * and the pool's busy fractions. Timing-sensitive assertions use
 * generous factors — the sampler only needs to catch frames that are
 * held for many periods.
 */

#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/profiler.hpp"
#include "util/stats_registry.hpp"
#include "util/trace.hpp"

namespace otft::prof {
namespace {

/** Hold a labeled frame long enough for many sampler periods. */
void
holdFrame(const char *label, int ms)
{
    trace::Scope frame(label);
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/** The folded stacks of the last collection, as "stack" strings. */
std::vector<std::string>
stackNames()
{
    std::vector<std::string> names;
    for (const FoldedStack &f : Profiler::instance().folded())
        names.push_back(f.stack);
    return names;
}

bool
containsStack(const std::vector<std::string> &names,
              const std::string &needle)
{
    for (const std::string &n : names)
        if (n == needle)
            return true;
    return false;
}

TEST(Profiler, DisabledByDefaultAndGuardsAreInert)
{
    ASSERT_FALSE(enabled());
    Profiler &p = Profiler::instance();
    p.reset();
    {
        trace::Scope frame("test.unsampled");
    }
    EXPECT_EQ(p.sampleCount(), 0u);
    EXPECT_TRUE(p.folded().empty());
}

TEST(Profiler, CollectsNestedLabeledStacks)
{
    Profiler &p = Profiler::instance();
    ASSERT_TRUE(p.start(200));
    {
        trace::Scope outer("test.outer");
        holdFrame("test.inner", 60);
    }
    p.stop();

    EXPECT_GT(p.sampleCount(), 0u);
    const auto names = stackNames();
    EXPECT_TRUE(
        containsStack(names, "main;test.outer;test.inner"))
        << "stacks: " << ::testing::PrintToString(names);

    // Self lands on the leaf; the outer frame's total covers it.
    std::uint64_t inner_self = 0;
    std::uint64_t outer_total = 0;
    std::uint64_t outer_self = 0;
    for (const FrameTotals &t : p.frameTotals()) {
        if (t.label == "test.inner")
            inner_self = t.self;
        if (t.label == "test.outer") {
            outer_total = t.total;
            outer_self = t.self;
        }
    }
    EXPECT_GT(inner_self, 0u);
    EXPECT_GE(outer_total, inner_self);
    EXPECT_EQ(outer_self, outer_total - inner_self);
}

TEST(Profiler, FoldedOutputRoundTrips)
{
    Profiler &p = Profiler::instance();
    ASSERT_TRUE(p.start(200));
    holdFrame("test.roundtrip", 40);
    p.stop();
    ASSERT_FALSE(p.folded().empty());

    std::stringstream stream;
    p.writeFolded(stream);
    const auto parsed = parseFolded(stream);
    const auto original = p.folded();
    ASSERT_EQ(parsed.size(), original.size());
    for (std::size_t i = 0; i < parsed.size(); ++i) {
        EXPECT_EQ(parsed[i].stack, original[i].stack);
        EXPECT_EQ(parsed[i].count, original[i].count);
    }
}

TEST(Profiler, ParseFoldedSkipsMalformedLines)
{
    std::stringstream stream(
        "main;good 12\n"
        "no trailing count\n"
        "missing_count\n"
        "main;trailing_junk 12x\n"
        " 7\n"
        "main;also_good 3\n");
    const auto parsed = parseFolded(stream);
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(parsed[0].stack, "main;good");
    EXPECT_EQ(parsed[0].count, 12u);
    EXPECT_EQ(parsed[1].stack, "main;also_good");
    EXPECT_EQ(parsed[1].count, 3u);
}

TEST(Profiler, SanitizesSeparatorsInLabels)
{
    Profiler &p = Profiler::instance();
    ASSERT_TRUE(p.start(200));
    holdFrame("bad;label with\tseps", 40);
    p.stop();
    EXPECT_TRUE(containsStack(stackNames(),
                              "main;bad_label_with_seps"))
        << "stacks: "
        << ::testing::PrintToString(stackNames());
}

TEST(Profiler, NestedStartIsRejectedAndKeepsOuterCollection)
{
    Profiler &p = Profiler::instance();
    ASSERT_TRUE(p.start());
    EXPECT_FALSE(p.start());
    EXPECT_TRUE(p.running());
    p.stop();
    p.stop(); // idempotent
    EXPECT_FALSE(p.running());
}

TEST(Profiler, ResetDropsResults)
{
    Profiler &p = Profiler::instance();
    ASSERT_TRUE(p.start(200));
    holdFrame("test.reset", 20);
    p.stop();
    p.reset();
    EXPECT_EQ(p.sampleCount(), 0u);
    EXPECT_TRUE(p.folded().empty());
    EXPECT_TRUE(p.frameTotals().empty());
}

TEST(Profiler, TopReportNamesHotFrames)
{
    Profiler &p = Profiler::instance();
    ASSERT_TRUE(p.start(200));
    holdFrame("test.report", 40);
    p.stop();
    std::ostringstream os;
    p.writeTopReport(os, 5);
    EXPECT_NE(os.str().find("test.report"), std::string::npos)
        << os.str();
    EXPECT_NE(os.str().find("samples"), std::string::npos)
        << os.str();
}

TEST(Profiler, FooterSectionIsValidOtftProf2Json)
{
    Profiler &p = Profiler::instance();
    ASSERT_TRUE(p.start(200));
    holdFrame("test.footer", 40);
    p.stop();

    const json::Value doc = json::parse(p.footerSection(3));
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.string("schema"), profSchema);
    EXPECT_EQ(static_cast<std::uint64_t>(doc.number("samples")),
              p.sampleCount());
    EXPECT_EQ(static_cast<std::uint64_t>(doc.number("period_us")),
              200u);
    // The sampler waits for a thread's frame lock, so there is no
    // dropped-sample count to report.
    EXPECT_FALSE(doc.has("dropped"));
    ASSERT_TRUE(doc.has("top"));
    const auto &top = doc.at("top").asArray();
    ASSERT_FALSE(top.empty());
    EXPECT_EQ(top.front().string("frame"), "test.footer");
}

TEST(Profiler, StackRootsAreDeterministicUnderJobs8)
{
    Profiler &p = Profiler::instance();
    ASSERT_TRUE(p.start(200));
    {
        parallel::JobsOverride jobs(8);
        parallel::parallelFor(32, [](std::size_t) {
            trace::Scope frame("test.par");
            std::this_thread::sleep_for(
                std::chrono::milliseconds(3));
        });
    }
    p.stop();

    const auto names = stackNames();
    ASSERT_FALSE(names.empty());
    bool saw_par = false;
    for (const std::string &stack : names) {
        const std::string root = stack.substr(0, stack.find(';'));
        // No numeric thread ids: labels must be identical run to run
        // and across job counts.
        EXPECT_TRUE(root == "main" || root == "worker")
            << "unexpected stack root in: " << stack;
        if (stack == "main;test.par" || stack == "worker;test.par")
            saw_par = true;
    }
    EXPECT_TRUE(saw_par)
        << "stacks: " << ::testing::PrintToString(names);
}

TEST(Profiler, PublishesWorkerBusyFractionsForPoolRuns)
{
    auto &busy_fraction = stats::accumulator(
        "parallel.pool.worker_busy_fraction",
        "per-worker busy fraction over one profiler collection");
    const std::uint64_t count_before = busy_fraction.count();

    Profiler &p = Profiler::instance();
    ASSERT_TRUE(p.start(200));
    {
        parallel::JobsOverride jobs(8);
        parallel::parallelFor(64, [](std::size_t) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(2));
        });
    }
    p.stop();

    // One busy-fraction sample per pool worker slot (exact busy ns
    // over the collection's wall ns); at jobs 8 the pool has at least
    // 7 helpers (the caller participates as "main").
    EXPECT_GT(busy_fraction.count(), count_before);
    EXPECT_GE(busy_fraction.max(), 0.0);
    EXPECT_LE(busy_fraction.max(), 1.0);
}

} // namespace
} // namespace otft::prof
