/**
 * @file Unit tests for util/parallel. Built into test_concurrency so
 * the TSan lane (`ctest -L concurrency`) covers the pool's work loop.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "util/profiler.hpp"

namespace otft {
namespace {

TEST(Parallel, HardwareJobsIsPositive)
{
    EXPECT_GE(parallel::hardwareJobs(), 1);
}

TEST(Parallel, SetJobsRoundTripsAndOverrideRestores)
{
    const int before = parallel::jobs();
    {
        parallel::JobsOverride pin(3);
        EXPECT_EQ(parallel::jobs(), 3);
        {
            parallel::JobsOverride nested(5);
            EXPECT_EQ(parallel::jobs(), 5);
        }
        EXPECT_EQ(parallel::jobs(), 3);
    }
    EXPECT_EQ(parallel::jobs(), before);
}

TEST(Parallel, SetJobsRejectsZeroAndNegative)
{
    EXPECT_THROW(parallel::setJobs(0), FatalError);
    EXPECT_THROW(parallel::setJobs(-4), FatalError);
}

TEST(Parallel, EveryIndexRunsExactlyOnce)
{
    for (const int jobs_count : {1, 2, 3, 8}) {
        parallel::JobsOverride pin(jobs_count);
        constexpr std::size_t n = 997; // prime: no job count divides it
        std::vector<std::atomic<int>> hits(n);
        parallel::parallelFor(n, [&](std::size_t i) { ++hits[i]; });
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1)
                << "index " << i << " at jobs " << jobs_count;
    }
}

TEST(Parallel, EmptyRangeCompletesWithoutCallingFn)
{
    parallel::JobsOverride pin(8);
    bool called = false;
    parallel::parallelFor(0, [&](std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(Parallel, SingleJobRunsInlineOnCaller)
{
    parallel::JobsOverride pin(1);
    const auto caller = std::this_thread::get_id();
    std::vector<std::thread::id> ran(16);
    parallel::parallelFor(ran.size(), [&](std::size_t i) {
        ran[i] = std::this_thread::get_id();
    });
    for (const auto &id : ran)
        EXPECT_EQ(id, caller);
}

TEST(Parallel, InsideWorkerOnlyTrueOnPoolThreads)
{
    EXPECT_FALSE(parallel::insideWorker());
    parallel::JobsOverride pin(4);
    std::atomic<int> inside{0};
    std::atomic<int> outside{0};
    parallel::parallelFor(64, [&](std::size_t) {
        if (parallel::insideWorker())
            ++inside;
        else
            ++outside;
    });
    // The calling thread helps drain its own batch, so both kinds of
    // thread may appear; together they cover every index.
    EXPECT_EQ(inside.load() + outside.load(), 64);
    EXPECT_FALSE(parallel::insideWorker());
}

TEST(Parallel, NestedParallelForRunsInlineAndCompletely)
{
    parallel::JobsOverride pin(4);
    constexpr std::size_t outer_n = 8;
    constexpr std::size_t inner_n = 32;
    std::atomic<std::uint64_t> total{0};
    parallel::parallelFor(outer_n, [&](std::size_t) {
        // Only a pool worker runs its inner loop inline: a fan-out
        // from inside a worker would deadlock a single-slot pool. The
        // calling thread also takes outer indices, and its inner loops
        // may fan out to whichever workers are free.
        const bool on_worker = parallel::insideWorker();
        const auto worker = std::this_thread::get_id();
        parallel::parallelFor(inner_n, [&](std::size_t) {
            if (on_worker) {
                EXPECT_EQ(std::this_thread::get_id(), worker);
            }
            ++total;
        });
    });
    EXPECT_EQ(total.load(), outer_n * inner_n);
}

TEST(Parallel, LowestThrowingIndexWinsDeterministically)
{
    parallel::JobsOverride pin(8);
    for (int rep = 0; rep < 20; ++rep) {
        std::atomic<std::size_t> ran{0};
        try {
            parallel::parallelFor(64, [&](std::size_t i) {
                ++ran;
                if (i == 9 || i == 41 || i == 63)
                    throw std::runtime_error(std::to_string(i));
            });
            FAIL() << "expected the task exception to propagate";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "9");
        }
        // Exceptions abandon nothing: every index still runs, so the
        // surviving slots (and the winning exception) are the same at
        // any job count.
        EXPECT_EQ(ran.load(), 64u);
    }
}

TEST(Parallel, OrderedMapFillsSlotsByIndex)
{
    parallel::JobsOverride pin(8);
    const auto squares = parallel::orderedMap<std::size_t>(
        200, [](std::size_t i) { return i * i; });
    ASSERT_EQ(squares.size(), 200u);
    for (std::size_t i = 0; i < squares.size(); ++i)
        EXPECT_EQ(squares[i], i * i);
}

TEST(Parallel, OrderedMapBitIdenticalAcrossJobCounts)
{
    const auto run = [](int jobs_count) {
        parallel::JobsOverride pin(jobs_count);
        return parallel::orderedMap<double>(512, [](std::size_t i) {
            const double x = static_cast<double>(i);
            return std::sin(x) * std::sqrt(x + 1.0) / (x + 0.5);
        });
    };
    const auto serial = run(1);
    for (const int jobs_count : {2, 3, 8}) {
        const auto parallel_run = run(jobs_count);
        ASSERT_EQ(serial.size(), parallel_run.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            // Bitwise, not approximate: the determinism contract.
            EXPECT_EQ(serial[i], parallel_run[i])
                << "slot " << i << " at jobs " << jobs_count;
        }
    }
}

/** Sum of the chunk counts over the caller and every worker slot. */
std::uint64_t
totalChunks(const parallel::PoolStats &snapshot)
{
    std::uint64_t chunks = snapshot.callerChunks;
    for (const std::uint64_t c : snapshot.workerChunks)
        chunks += c;
    return chunks;
}

TEST(Parallel, PoolAccountsNothingWithoutTheProfiler)
{
    ASSERT_FALSE(prof::enabled());
    EXPECT_EQ(parallel::queueDepth(), 0);
    parallel::resetPoolStats();
    parallel::JobsOverride pin(4);
    parallel::parallelFor(64, [](std::size_t) {});
    const parallel::PoolStats snapshot = parallel::poolStatsSnapshot();
    EXPECT_EQ(totalChunks(snapshot), 0u);
    EXPECT_EQ(snapshot.callerBusyNs, 0u);
    for (const std::uint64_t ns : snapshot.workerBusyNs)
        EXPECT_EQ(ns, 0u);
}

/**
 * Run the sampling profiler for one test: the pool accounts exactly
 * while a collection runs, and start() zeroes its totals.
 */
class ProfilerCollection
{
  public:
    ProfilerCollection()
    {
        EXPECT_TRUE(prof::Profiler::instance().start());
    }
    ~ProfilerCollection()
    {
        prof::Profiler::instance().stop();
        prof::Profiler::instance().reset();
    }

    ProfilerCollection(const ProfilerCollection &) = delete;
    ProfilerCollection &operator=(const ProfilerCollection &) = delete;
};

TEST(Parallel, PoolStatsCountChunksExactly)
{
    ProfilerCollection collection;
    parallel::JobsOverride pin(4);
    constexpr std::size_t n = 200;
    std::atomic<std::size_t> ran{0};
    parallel::parallelFor(n, [&](std::size_t) { ++ran; });
    ASSERT_EQ(ran.load(), n);

    const parallel::PoolStats snapshot = parallel::poolStatsSnapshot();
    // Every index is one chunk, attributed exactly once, to the caller
    // or to one worker slot — no double counting, nothing dropped.
    EXPECT_EQ(totalChunks(snapshot), n);
    EXPECT_EQ(snapshot.queueDepth, 0);
}

TEST(Parallel, PoolStatsBusyTimeCoversTheWorkload)
{
    ProfilerCollection collection;
    parallel::JobsOverride pin(4);
    constexpr std::size_t n = 32;
    constexpr auto napMs = std::chrono::milliseconds(2);
    parallel::parallelFor(
        n, [&](std::size_t) { std::this_thread::sleep_for(napMs); });

    const parallel::PoolStats snapshot = parallel::poolStatsSnapshot();
    std::uint64_t busy_ns = snapshot.callerBusyNs;
    for (const std::uint64_t ns : snapshot.workerBusyNs)
        busy_ns += ns;
    // Summed busy time across participants must cover the sleeps
    // (generous halving: sleep_for may round, clocks may coarsen).
    const std::uint64_t floor_ns = n * 2'000'000ull / 2;
    EXPECT_GE(busy_ns, floor_ns);
}

TEST(Parallel, PoolStatsResetClearsTotals)
{
    ProfilerCollection collection;
    parallel::JobsOverride pin(4);
    parallel::parallelFor(64, [](std::size_t) {});
    parallel::resetPoolStats();
    const parallel::PoolStats snapshot = parallel::poolStatsSnapshot();
    EXPECT_EQ(snapshot.callerChunks, 0u);
    EXPECT_EQ(snapshot.callerBusyNs, 0u);
    for (std::size_t i = 0; i < snapshot.workerChunks.size(); ++i) {
        EXPECT_EQ(snapshot.workerChunks[i], 0u) << "slot " << i;
        EXPECT_EQ(snapshot.workerBusyNs[i], 0u) << "slot " << i;
    }
}

TEST(Parallel, PoolRespawnsAfterShutdown)
{
    parallel::JobsOverride pin(4);
    std::atomic<std::size_t> ran{0};
    parallel::parallelFor(32, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran.load(), 32u);

    parallel::shutdownPool();

    ran = 0;
    parallel::parallelFor(32, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran.load(), 32u);
}

} // namespace
} // namespace otft
