/**
 * @file
 * Lifecycle tests for the one per-thread record that the timeline and
 * the sampling profiler share: the spans of a thread that exits during
 * a collection are written once and never carried into the next one,
 * a thread that has exited is never sampled, and timeline start/stop
 * cycles under a running profiler write well-formed files while short
 * lived threads open spans and frames. The data races themselves are
 * caught when this binary runs under ThreadSanitizer
 * (scripts/verify.sh --tsan).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/json.hpp"
#include "util/profiler.hpp"
#include "util/trace.hpp"

namespace otft {
namespace {

json::Value
readTimeline(const std::string &path)
{
    std::ifstream is(path);
    EXPECT_TRUE(is.good()) << path;
    return json::parse(is);
}

/** The tids of the events named `name`, one entry per event. */
std::multiset<double>
tidsNamed(const json::Value &timeline, const std::string &name)
{
    std::multiset<double> tids;
    for (const json::Value &event : timeline.asArray())
        if (event.string("name") == name)
            tids.insert(event.number("tid"));
    return tids;
}

/**
 * Run one profiler collection while the main thread holds a frame
 * for many sampler periods. @return the footer's "threads" count.
 */
int
threadsSampled()
{
    prof::Profiler &p = prof::Profiler::instance();
    EXPECT_TRUE(p.start(200));
    {
        trace::Scope frame("test.record.hold");
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    p.stop();
    return static_cast<int>(
        json::parse(p.footerSection()).number("threads"));
}

TEST(ThreadRecord, ExitedThreadSpansAppearOnceInTheirCollection)
{
    constexpr int spans = 50;
    const std::string first = "test_record_first.json";
    const std::string second = "test_record_second.json";

    trace::start(first);
    std::thread([] {
        for (int i = 0; i < spans; ++i) {
            OTFT_TRACE_SCOPE("test.record.exited");
        }
    }).join();
    {
        OTFT_TRACE_SCOPE("test.record.main");
    }
    trace::stop();
    EXPECT_EQ(trace::eventCount(), 0u);

    trace::start(second);
    {
        OTFT_TRACE_SCOPE("test.record.main");
    }
    trace::stop();

    const json::Value one = readTimeline(first);
    const json::Value two = readTimeline(second);
    const std::multiset<double> exited =
        tidsNamed(one, "test.record.exited");
    const std::multiset<double> main_tid =
        tidsNamed(one, "test.record.main");
    EXPECT_EQ(exited.size(), static_cast<std::size_t>(spans));
    ASSERT_EQ(main_tid.size(), 1u);
    // One thread, one tid, distinct from the main thread's.
    EXPECT_EQ(exited.count(*exited.begin()), exited.size());
    EXPECT_EQ(exited.count(*main_tid.begin()), 0u);

    EXPECT_TRUE(tidsNamed(two, "test.record.exited").empty());
    EXPECT_EQ(tidsNamed(two, "test.record.main"), main_tid);
    std::remove(first.c_str());
    std::remove(second.c_str());
}

TEST(ThreadRecord, ExitedThreadIsNotSampled)
{
    const int live = threadsSampled();
    ASSERT_GE(live, 1);

    // The thread's span keeps its record registered after it exits,
    // until stop() takes the event; the profiler must not count it.
    const std::string path = "test_record_unsampled.json";
    trace::start(path);
    std::thread([] { OTFT_TRACE_SCOPE("test.record.exited"); }).join();
    EXPECT_EQ(threadsSampled(), live);
    trace::stop();

    EXPECT_EQ(tidsNamed(readTimeline(path), "test.record.exited").size(),
              1u);
    std::remove(path.c_str());
}

TEST(ThreadRecord, TimelineCyclesUnderTheProfilerStayWellFormed)
{
    prof::Profiler &p = prof::Profiler::instance();
    ASSERT_TRUE(p.start(100));

    // Each worker keeps starting short-lived threads, so records
    // register and exit across every collection boundary.
    std::atomic<bool> done{false};
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t)
        workers.emplace_back([&done] {
            while (!done.load(std::memory_order_relaxed))
                std::thread([] {
                    for (int i = 0; i < 20; ++i) {
                        OTFT_TRACE_SCOPE("test.record.span");
                        trace::Scope frame("test.record.frame");
                    }
                }).join();
        });

    std::size_t events = 0;
    {
        // A frame on the main thread gives every sample a stack.
        trace::Scope frame("test.record.cycles");
        for (int k = 0; k < 6; ++k) {
            const std::string path =
                "test_record_cycle" + std::to_string(k) + ".json";
            trace::start(path);
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            trace::stop();

            const json::Value timeline = readTimeline(path);
            ASSERT_TRUE(timeline.isArray());
            for (const json::Value &event : timeline.asArray()) {
                EXPECT_EQ(event.string("ph"), "X");
                EXPECT_GE(event.number("dur", -1.0), 0.0);
            }
            events += timeline.asArray().size();
            std::remove(path.c_str());
        }
        done = true;
        for (std::thread &worker : workers)
            worker.join();
    }
    p.stop();

    EXPECT_GT(events, 0u);
    EXPECT_GT(p.sampleCount(), 0u);
    EXPECT_EQ(trace::eventCount(), 0u);
}

} // namespace
} // namespace otft
