/**
 * @file Unit tests for util/memo. Built into test_concurrency so the
 * TSan lane (`ctest -L concurrency`) covers the waiting path.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "util/memo.hpp"
#include "util/stats_registry.hpp"

namespace otft {
namespace {

/** Completed `util.memo.wait` spans so far. */
std::uint64_t
memoWaits()
{
    return stats::accumulator("time.util.memo.wait").count();
}

TEST(Memo, ComputesOnceAndReportsWhoComputed)
{
    Memo<int, int> memo;
    int calls = 0;
    bool computed = false;
    EXPECT_EQ(memo.get(1, [&] { return ++calls * 10; }, &computed), 10);
    EXPECT_TRUE(computed);
    EXPECT_EQ(memo.get(1, [&] { return ++calls * 10; }, &computed), 10);
    EXPECT_FALSE(computed);
    EXPECT_EQ(calls, 1);
}

TEST(Memo, ReadyHitRecordsNoWaitSpan)
{
    Memo<int, int> memo;
    memo.get(1, [] { return 1; });
    const std::uint64_t before = memoWaits();
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(memo.get(1, [] { return 2; }), 1);
    EXPECT_EQ(memoWaits(), before);
}

/**
 * One caller blocks on another's slow compute of the same key. The
 * compute is released after a delay; returns the `util.memo.wait`
 * spans the blocked caller recorded (0 if it only arrived once the
 * value was ready).
 */
std::uint64_t
waitSpansOfABlockedCaller()
{
    Memo<int, int> memo;
    std::atomic<bool> started{false};
    std::atomic<bool> release{false};
    std::thread producer([&] {
        memo.get(7, [&] {
            started = true;
            while (!release)
                std::this_thread::yield();
            return 42;
        });
    });
    while (!started)
        std::this_thread::yield();
    std::thread releaser([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        release = true;
    });

    const std::uint64_t before = memoWaits();
    bool computed = true;
    EXPECT_EQ(memo.get(7, [] { return -1; }, &computed), 42);
    EXPECT_FALSE(computed);
    const std::uint64_t spans = memoWaits() - before;
    producer.join();
    releaser.join();
    return spans;
}

TEST(Memo, BlockedCallerRecordsOneWaitSpan)
{
    // A caller descheduled past the release finds the value ready and
    // rightly records nothing; retry rather than depend on timing.
    std::uint64_t spans = 0;
    for (int attempt = 0; attempt < 10 && spans == 0; ++attempt)
        spans = waitSpansOfABlockedCaller();
    EXPECT_EQ(spans, 1u);
}

} // namespace
} // namespace otft
