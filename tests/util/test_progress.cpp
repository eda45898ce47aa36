/**
 * @file
 * Unit tests for the progress reporter: counting, the status line,
 * and the median-based watchdog. Rendering itself is policy-gated
 * (OTFT_PROGRESS / TTY detection), so the tests exercise the
 * rendering-independent surface that drives it.
 */

#include <chrono>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "util/progress.hpp"

namespace otft::progress {
namespace {

/** The reporter's fixed watchdog multiple and minimum sample count. */
constexpr double slowTaskMultiple = 8.0;
constexpr int slowTaskMinSamples = 8;

TEST(Progress, CountsCompletedItems)
{
    Reporter reporter("test.sweep", 4);
    EXPECT_EQ(reporter.completed(), 0u);
    reporter.itemDone(0.0);
    reporter.itemDone(0.0);
    EXPECT_EQ(reporter.completed(), 2u);
    reporter.done();
    EXPECT_EQ(reporter.completed(), 2u);
}

TEST(Progress, LineShowsLabelCountAndPercent)
{
    Reporter reporter("test.sweep", 10);
    for (int i = 0; i < 5; ++i)
        reporter.itemDone(0.0);
    const std::string line = reporter.line();
    EXPECT_NE(line.find("test.sweep: 5/10"), std::string::npos)
        << line;
    EXPECT_NE(line.find("(50%)"), std::string::npos) << line;
    EXPECT_NE(line.find("/s"), std::string::npos) << line;
}

TEST(Progress, LineWithoutTotalOmitsPercent)
{
    Reporter reporter("test.sweep", 0);
    reporter.itemDone(0.0);
    const std::string line = reporter.line();
    EXPECT_NE(line.find("test.sweep: 1"), std::string::npos) << line;
    EXPECT_EQ(line.find("%"), std::string::npos) << line;
}

TEST(Progress, WatchdogFlagsOutliersPastTheMedian)
{
    Reporter reporter("test.sweep", 0);
    // Build up a stable median of ~10 ms.
    for (int i = 0; i < slowTaskMinSamples; ++i)
        reporter.itemDone(0.010);
    EXPECT_EQ(reporter.watchdogFlags(), 0u);
    // 1 s against a 10 ms median is far past 8x.
    reporter.itemDone(1.0);
    EXPECT_EQ(reporter.watchdogFlags(), 1u);
    // Normal tasks afterwards stay unflagged.
    reporter.itemDone(0.011);
    EXPECT_EQ(reporter.watchdogFlags(), 1u);
}

TEST(Progress, WatchdogIgnoresOutliersBelowTheFloor)
{
    Reporter reporter("test.sweep", 0);
    // Microsecond tasks: a 200 ms straggler is 10000x the median but
    // still under the absolute floor, so it is not worth a warning.
    for (int i = 0; i < slowTaskMinSamples; ++i)
        reporter.itemDone(20e-6);
    reporter.itemDone(0.2);
    EXPECT_EQ(reporter.watchdogFlags(), 0u);
    // Past both the floor and the multiple it flags.
    reporter.itemDone(2.0);
    EXPECT_EQ(reporter.watchdogFlags(), 1u);
}

TEST(Progress, WatchdogFloorDoesNotReplaceTheMultiple)
{
    Reporter reporter("test.sweep", 0);
    // Long tasks: 3 s is past the floor but only 1.5x a 2 s median.
    for (int i = 0; i < slowTaskMinSamples; ++i)
        reporter.itemDone(2.0);
    reporter.itemDone(3.0);
    EXPECT_EQ(reporter.watchdogFlags(), 0u);
    // Just under the multiple still passes; just over it flags.
    reporter.itemDone(0.99 * slowTaskMultiple * 2.0);
    EXPECT_EQ(reporter.watchdogFlags(), 0u);
    reporter.itemDone(1.01 * slowTaskMultiple * 2.0);
    EXPECT_EQ(reporter.watchdogFlags(), 1u);
}

TEST(Progress, WatchdogWaitsForMinSamples)
{
    Reporter reporter("test.sweep", 0);
    // Outliers among the first minSamples items never flag: the
    // median is not trustworthy yet.
    for (int i = 0; i < slowTaskMinSamples - 1; ++i)
        reporter.itemDone(i == 3 ? 5.0 : 0.010);
    reporter.itemDone(5.0);
    EXPECT_EQ(reporter.watchdogFlags(), 0u);
    // With minSamples durations in (median 10 ms), it judges.
    reporter.itemDone(5.0);
    EXPECT_EQ(reporter.watchdogFlags(), 1u);
}

TEST(Progress, ZeroDurationsSkipTheWatchdogSampleSet)
{
    Reporter reporter("test.sweep", 0);
    // Unknown durations (0) must neither flag nor poison the median.
    for (int i = 0; i < 10; ++i)
        reporter.itemDone(0.0);
    EXPECT_EQ(reporter.watchdogFlags(), 0u);
    EXPECT_EQ(reporter.completed(), 10u);
}

TEST(Progress, SmoothedRateWaitsForTheFirstWindow)
{
    Reporter reporter("test.sweep", 0);
    // Ticks inside the minimum window accumulate without closing it.
    reporter.itemDone(0.0);
    reporter.itemDone(0.0);
    EXPECT_EQ(reporter.smoothedRate(), 0.0);
    // Cross the window: the first EWMA sample seeds from all pending
    // items at once.
    std::this_thread::sleep_for(std::chrono::milliseconds(70));
    reporter.itemDone(0.0);
    EXPECT_GT(reporter.smoothedRate(), 0.0);
}

TEST(Progress, SmoothedRateDampsABurstAfterIdle)
{
    Reporter reporter("test.sweep", 0);
    // Seed a slow rate: one item over ~70 ms.
    std::this_thread::sleep_for(std::chrono::milliseconds(70));
    reporter.itemDone(0.0);
    const double seeded = reporter.smoothedRate();
    ASSERT_GT(seeded, 0.0);
    // Burst 200 items (they accumulate as one pending window), then
    // close the window with a final tick: the EWMA moves up, but the
    // long time constant keeps it far below the burst's
    // items-per-window rate (thousands per second here).
    for (int i = 0; i < 200; ++i)
        reporter.itemDone(0.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(70));
    reporter.itemDone(0.0);
    const double smoothed = reporter.smoothedRate();
    EXPECT_GT(smoothed, seeded);
    EXPECT_LT(smoothed, 500.0);
}

TEST(Progress, DoneIsIdempotentAndDestructorSafe)
{
    {
        Reporter reporter("test.sweep", 2);
        reporter.itemDone(0.0);
        reporter.done();
        reporter.done();
        // Destructor calls done() again; must not crash or double
        // count.
        EXPECT_EQ(reporter.completed(), 1u);
    }
}

} // namespace
} // namespace otft::progress
