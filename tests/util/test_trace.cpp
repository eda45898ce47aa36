/**
 * @file
 * Unit tests for util/trace: the Scope's timed, labelled and profiled
 * parts, its disabled paths, and the Chrome timeline collector.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "util/diag.hpp"
#include "util/json.hpp"
#include "util/profiler.hpp"
#include "util/stats_registry.hpp"
#include "util/trace.hpp"

namespace otft {
namespace {

void
inner()
{
    OTFT_TRACE_SCOPE("test.span.inner");
}

void
outer()
{
    OTFT_TRACE_SCOPE("test.span.outer");
    inner();
    inner();
}

TEST(Trace, NestedSpansAggregateIntoRegistry)
{
    stats::Accumulator &outer_acc =
        stats::accumulator("time.test.span.outer");
    stats::Accumulator &inner_acc =
        stats::accumulator("time.test.span.inner");
    outer_acc.reset();
    inner_acc.reset();

    outer();

    EXPECT_EQ(outer_acc.count(), 1u);
    EXPECT_EQ(inner_acc.count(), 2u);
    // Inclusive timing: the parent contains its children.
    EXPECT_GE(outer_acc.sum(), inner_acc.sum());
}

TEST(Trace, SpansOutsideACollectionRecordNoEvents)
{
    ASSERT_FALSE(trace::collecting());
    outer();
    EXPECT_FALSE(trace::collecting());
    EXPECT_EQ(trace::eventCount(), 0u);
}

TEST(Trace, TimelineCollectionWritesChromeTraceJson)
{
    const std::string path = "test_trace_out.json";

    trace::start(path);
    EXPECT_TRUE(trace::collecting());
    outer();
    EXPECT_EQ(trace::eventCount(), 3u);
    trace::stop();
    EXPECT_FALSE(trace::collecting());
    EXPECT_EQ(trace::eventCount(), 0u);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();
    while (!text.empty() && std::isspace(text.back()))
        text.pop_back();
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text.front(), '[');
    EXPECT_EQ(text.back(), ']');
    EXPECT_NE(text.find("\"test.span.outer\""), std::string::npos);
    EXPECT_NE(text.find("\"test.span.inner\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(text.find("\"dur\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(Trace, LateSpansKeepSubMicrosecondTimestamps)
{
    const std::string path = "test_trace_late.json";
    trace::start(path);
    // Two sibling spans 12 s into the collection, 1.5 us apart: with
    // significant-digit formatting both starts round to the same
    // 10 us step and the earlier span appears to contain the later.
    const std::int64_t base = stats::monotonicNowNs() + 12'000'000'000;
    trace::recordEvent("test.late.a", base, base + 1'000);
    trace::recordEvent("test.late.b", base + 1'500, base + 2'250);
    trace::stop();

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    const json::Value doc = json::parse(ss.str());
    ASSERT_EQ(doc.asArray().size(), 2u);
    const json::Value &a = doc.asArray()[0];
    const json::Value &b = doc.asArray()[1];
    EXPECT_EQ(a.string("name"), "test.late.a");
    EXPECT_GT(a.number("ts"), 1e6);
    EXPECT_NEAR(b.number("ts") - a.number("ts"), 1.5, 1e-3);
    EXPECT_NEAR(a.number("dur"), 1.0, 1e-3);
    EXPECT_NEAR(b.number("dur"), 0.75, 1e-3);
    // The earlier span ends before its sibling starts.
    EXPECT_LT(a.number("ts") + a.number("dur"), b.number("ts"));
    std::remove(path.c_str());
}

TEST(Trace, CollectionCapturesEverySpanOnceAndTimesIt)
{
    stats::Accumulator &outer_acc =
        stats::accumulator("time.test.span.outer");
    outer_acc.reset();
    const std::string path = "test_trace_out2.json";

    trace::start(path);
    outer();
    EXPECT_EQ(trace::eventCount(), 3u);
    trace::stop();

    // The timeline captured the spans; the accumulator timed the
    // outer span once, as it does outside a collection.
    EXPECT_EQ(outer_acc.count(), 1u);
    std::remove(path.c_str());
}

TEST(Trace, TimerScopeSamplesOncePerScopeWithoutTimelineEvents)
{
    stats::Accumulator &a = stats::accumulator("test.timer.acc");
    a.reset();
    const std::string path = "test_trace_timer.json";
    trace::start(path);
    {
        trace::Scope timer(nullptr, &a);
    }
    EXPECT_EQ(trace::eventCount(), 0u);
    trace::stop();
    EXPECT_EQ(a.count(), 1u);
    EXPECT_GE(a.sum(), 0.0);
    std::remove(path.c_str());
}

/** A label builder that counts its calls. */
struct CountingLabel
{
    const char *text;
    int *calls;

    std::string
    operator()() const
    {
        ++*calls;
        return text;
    }
};

TEST(Trace, LabelledScopesNestWithSlash)
{
    diag::Collector::instance().setEnabled(true);
    int calls = 0;
    EXPECT_EQ(diag::context(), "");
    {
        trace::Scope outer(trace::labelled,
                           CountingLabel{"liberty.inv", &calls});
        EXPECT_EQ(diag::context(), "liberty.inv");
        {
            trace::Scope inner(trace::labelled,
                               CountingLabel{"pin0", &calls});
            EXPECT_EQ(diag::context(), "liberty.inv/pin0");
        }
        EXPECT_EQ(diag::context(), "liberty.inv");
        trace::Scope empty(trace::labelled, CountingLabel{"", &calls});
        EXPECT_EQ(diag::context(), "liberty.inv");
    }
    EXPECT_EQ(diag::context(), "");
    EXPECT_EQ(calls, 3);
    diag::Collector::instance().setEnabled(false);
}

TEST(Trace, LabelledScopeNeverBuildsItsLabelWhenNothingWantsIt)
{
    ASSERT_FALSE(diag::enabled());
    ASSERT_FALSE(prof::enabled());
    int calls = 0;
    {
        trace::Scope ctx(trace::labelled,
                         CountingLabel{"liberty.dff", &calls});
        EXPECT_EQ(diag::context(), "");
    }
    EXPECT_EQ(calls, 0);

    // The profiler alone wants labels (as frames), not the context.
    ASSERT_TRUE(prof::Profiler::instance().start());
    {
        trace::Scope ctx(trace::labelled,
                         CountingLabel{"liberty.dff", &calls});
        EXPECT_EQ(diag::context(), "");
    }
    prof::Profiler::instance().stop();
    EXPECT_EQ(calls, 1);
}

TEST(Trace, DisabledProfilerFrameOverheadIsBounded)
{
    // A fixed workload whose per-item cost dwarfs one relaxed atomic
    // load: the profiled run may pay a push/pop (lock + label copy)
    // per item, but must stay within a generous factor overall.
    const auto workload = [] {
        volatile double sink = 0.0;
        for (int i = 0; i < 4000; ++i) {
            trace::Scope frame("test.overhead");
            double acc = 0.0;
            for (int k = 0; k < 400; ++k)
                acc += static_cast<double>(k) * 1e-3;
            sink = sink + acc;
        }
        return sink;
    };

    workload(); // warm caches
    const std::int64_t t0 = stats::monotonicNowNs();
    workload();
    const std::int64_t unprofiled = stats::monotonicNowNs() - t0;

    prof::Profiler &p = prof::Profiler::instance();
    ASSERT_TRUE(p.start());
    const std::int64_t t1 = stats::monotonicNowNs();
    workload();
    const std::int64_t profiled = stats::monotonicNowNs() - t1;
    p.stop();

    // Generous: 8x plus an absolute floor so scheduler noise on a
    // sub-millisecond baseline cannot flake the bound.
    EXPECT_LT(profiled, 8 * unprofiled + 20'000'000)
        << "unprofiled " << unprofiled << " ns, profiled "
        << profiled << " ns";
}

} // namespace
} // namespace otft
