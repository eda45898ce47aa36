/**
 * @file
 * Concurrency stress harness for the instrumentation subsystem, the
 * parallel layer and the shared front-end stream. Every test hammers
 * one shared structure from many threads and then asserts *exact*
 * totals — races that drop or
 * double-count updates fail the assertion, and the data races
 * themselves are caught when this binary runs under ThreadSanitizer
 * (scripts/verify.sh --tsan).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <functional>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/front_end.hpp"
#include "util/diag.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/stats_registry.hpp"
#include "util/trace.hpp"

namespace otft {
namespace {

constexpr int kThreads = 8;

/** Run fn(t) on `count` plain std::threads and join them all. */
void
onThreads(const std::function<void(int)> &fn, int count = kThreads)
{
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(count));
    for (int t = 0; t < count; ++t)
        threads.emplace_back([&fn, t] { fn(t); });
    for (auto &thread : threads)
        thread.join();
}

TEST(ConcurrencyStress, CounterTotalExactUnderContention)
{
    stats::Counter &counter = stats::counter(
        "test.concurrency.counter", "stress counter");
    counter.reset();

    constexpr std::uint64_t per_thread = 100000;
    onThreads([&](int) {
        for (std::uint64_t i = 0; i < per_thread; ++i)
            ++counter;
    });

    EXPECT_EQ(counter.value(), kThreads * per_thread);
}

TEST(ConcurrencyStress, CounterAddTotalExact)
{
    stats::Counter &counter = stats::counter(
        "test.concurrency.counter_add", "stress counter (+=)");
    counter.reset();

    constexpr std::uint64_t per_thread = 50000;
    onThreads([&](int) {
        for (std::uint64_t i = 0; i < per_thread; ++i)
            counter += 3;
    });

    EXPECT_EQ(counter.value(), kThreads * per_thread * 3);
}

TEST(ConcurrencyStress, AccumulatorMomentsExact)
{
    stats::Accumulator &acc = stats::accumulator(
        "test.concurrency.accumulator", "stress accumulator");
    acc.reset();

    constexpr int per_thread = 20000;
    onThreads([&](int) {
        for (int i = 0; i < per_thread; ++i)
            acc.sample(2.0);
    });

    const auto total =
        static_cast<std::uint64_t>(kThreads) * per_thread;
    EXPECT_EQ(acc.count(), total);
    // Every sample is the same value, so sum/min/max/mean are exact
    // in floating point — any torn or lost update shows up here.
    EXPECT_EQ(acc.sum(), 2.0 * static_cast<double>(total));
    EXPECT_EQ(acc.min(), 2.0);
    EXPECT_EQ(acc.max(), 2.0);
    EXPECT_EQ(acc.mean(), 2.0);
}

TEST(ConcurrencyStress, HistogramSampleCountExact)
{
    stats::Histogram &hist = stats::histogram(
        "test.concurrency.histogram", 0.0, 10.0, 10,
        "stress histogram");
    hist.reset();

    constexpr int per_thread = 20000;
    onThreads([&](int t) {
        for (int i = 0; i < per_thread; ++i)
            hist.sample(static_cast<double>(t) + 0.5);
    });

    const auto total =
        static_cast<std::uint64_t>(kThreads) * per_thread;
    EXPECT_EQ(hist.totalSamples(), total);
    std::uint64_t binned = hist.underflow() + hist.overflow();
    for (std::uint64_t count : hist.binsSnapshot())
        binned += count;
    EXPECT_EQ(binned, total);
    // Each thread hits its own bin with an exact per-thread count.
    const auto bins = hist.binsSnapshot();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(bins[static_cast<std::size_t>(t)],
                  static_cast<std::uint64_t>(per_thread))
            << "bin " << t;
}

/** Twice as many threads as shards, so every shard slot is shared. */
constexpr int kShardSharingThreads =
    2 * static_cast<int>(stats::detail::shardCount);

TEST(ConcurrencyStress, ShardedTotalsExactWhenThreadsShareShards)
{
    stats::Counter &counter =
        stats::counter("test.concurrency.shard_counter");
    stats::Accumulator &acc =
        stats::accumulator("test.concurrency.shard_accumulator");
    stats::Histogram &hist = stats::histogram(
        "test.concurrency.shard_histogram", 0.0, 8.0, 8);
    counter.reset();
    acc.reset();
    hist.reset();

    constexpr int per_thread = 5000;
    onThreads([&](int t) {
        for (int i = 0; i < per_thread; ++i) {
            ++counter;
            acc.sample(1.0);
            hist.sample(static_cast<double>(t % 8) + 0.5);
        }
    }, kShardSharingThreads);

    const auto total =
        static_cast<std::uint64_t>(kShardSharingThreads) * per_thread;
    EXPECT_EQ(counter.value(), total);
    EXPECT_EQ(acc.count(), total);
    EXPECT_EQ(acc.sum(), static_cast<double>(total));
    EXPECT_EQ(hist.totalSamples(), total);
    // Threads t, t + 8, ... share bin t % 8.
    for (std::uint64_t count : hist.binsSnapshot())
        EXPECT_EQ(count, total / 8);
}

TEST(ConcurrencyStress, AccumulatorMergesMinMaxSumAcrossShards)
{
    stats::Accumulator &acc =
        stats::accumulator("test.concurrency.shard_moments");
    acc.reset();

    // Thread t samples the integer t + 1, so the merged extremes come
    // from two different threads and every partial sum is exact.
    constexpr int per_thread = 1000;
    onThreads([&](int t) {
        for (int i = 0; i < per_thread; ++i)
            acc.sample(static_cast<double>(t + 1));
    }, kShardSharingThreads);

    const int n = kShardSharingThreads;
    EXPECT_EQ(acc.count(), static_cast<std::uint64_t>(n) * per_thread);
    EXPECT_EQ(acc.min(), 1.0);
    EXPECT_EQ(acc.max(), static_cast<double>(n));
    EXPECT_EQ(acc.sum(), static_cast<double>(per_thread) * n * (n + 1) / 2);
    EXPECT_EQ(acc.mean(), static_cast<double>(n + 1) / 2);
}

TEST(ConcurrencyStress, ResetAfterBurstZeroesEveryShard)
{
    stats::Counter &counter =
        stats::counter("test.concurrency.reset_counter");
    stats::Accumulator &acc =
        stats::accumulator("test.concurrency.reset_accumulator");
    stats::Histogram &hist = stats::histogram(
        "test.concurrency.reset_histogram", 0.0, 4.0, 4);

    onThreads([&](int t) {
        for (int i = 0; i < 100; ++i) {
            ++counter;
            acc.sample(static_cast<double>(t));
            hist.sample(static_cast<double>(t % 6) - 1.0);
        }
    }, kShardSharingThreads);
    ASSERT_GT(counter.value(), 0u);

    counter.reset();
    acc.reset();
    hist.reset();
    EXPECT_EQ(counter.value(), 0u);
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_EQ(acc.sum(), 0.0);
    EXPECT_EQ(hist.totalSamples(), 0u);

    ++counter;
    acc.sample(5.0);
    hist.sample(1.0);
    EXPECT_EQ(counter.value(), 1u);
    EXPECT_EQ(acc.count(), 1u);
    EXPECT_EQ(acc.min(), 5.0);
    EXPECT_EQ(acc.max(), 5.0);
    EXPECT_EQ(hist.totalSamples(), 1u);
    EXPECT_EQ(hist.binsSnapshot()[1], 1u);
}

TEST(ConcurrencyStress, RegistryFindOrCreateRacesYieldOneNode)
{
    stats::Registry &registry = stats::Registry::instance();
    std::vector<stats::Counter *> seen(kThreads, nullptr);
    onThreads([&](int t) {
        // All threads race to create the same name; the registry must
        // hand every thread the same node.
        stats::Counter &c = stats::counter(
            "test.concurrency.race_node", "created by whoever wins");
        seen[static_cast<std::size_t>(t)] = &c;
        ++c;
    });
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(seen[static_cast<std::size_t>(t)], seen[0]);
    EXPECT_EQ(seen[0]->value(), static_cast<std::uint64_t>(kThreads));
    EXPECT_TRUE(registry.has("test.concurrency.race_node"));
}

TEST(ConcurrencyStress, DumpWhileWritingStaysValidJson)
{
    stats::Counter &counter = stats::counter(
        "test.concurrency.dump_target", "incremented during dumps");
    counter.reset();

    std::atomic<bool> done{false};
    std::thread writer([&] {
        while (!done.load(std::memory_order_relaxed))
            ++counter;
    });
    // Wait for the writer to be mid-stream before dumping (on a
    // single-core box it may not be scheduled immediately).
    while (counter.value() == 0)
        std::this_thread::yield();

    // Dumps taken mid-write must each be a complete, parseable
    // document: the registry snapshots under its lock.
    for (int rep = 0; rep < 50; ++rep) {
        std::ostringstream os;
        stats::Registry::instance().dumpJson(os);
        const json::Value doc = json::parse(os.str());
        EXPECT_TRUE(doc.isObject());
    }
    done = true;
    writer.join();
    EXPECT_GT(counter.value(), 0u);
}

TEST(ConcurrencyStress, ConcurrentSpansMergeIntoValidTimeline)
{
    const std::string path = "test_concurrency_trace.json";
    trace::start(path);

    constexpr int spans_per_thread = 200;
    onThreads([&](int) {
        for (int i = 0; i < spans_per_thread; ++i) {
            OTFT_TRACE_SCOPE("test.concurrency.span");
        }
    });

    // Plus one span from the main thread so its tid shows up too.
    {
        OTFT_TRACE_SCOPE("test.concurrency.main_span");
    }
    trace::stop();

    std::ifstream is(path);
    ASSERT_TRUE(is.good());
    const json::Value doc = json::parse(is);
    ASSERT_TRUE(doc.isArray());
    const auto &events = doc.asArray();
    EXPECT_EQ(events.size(),
              static_cast<std::size_t>(kThreads * spans_per_thread) +
                  1);

    // Every event is a complete record; the emitting threads keep
    // distinct tids; timestamps are merged in nondecreasing order.
    std::set<double> tids;
    double prev_ts = -1e300;
    for (const auto &event : events) {
        EXPECT_EQ(event.string("ph"), "X");
        EXPECT_GE(event.number("dur", -1.0), 0.0);
        tids.insert(event.number("tid"));
        EXPECT_GE(event.number("ts"), prev_ts);
        prev_ts = event.number("ts");
    }
    EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads) + 1);
    std::remove(path.c_str());
}

TEST(ConcurrencyStress, ParallelForFromManyThreadsAtOnce)
{
    parallel::JobsOverride pin(4);
    constexpr int loops = 8;
    constexpr std::size_t n = 2000;
    std::vector<std::atomic<std::uint64_t>> totals(kThreads);
    // Several threads submit batches to the shared pool concurrently;
    // each must see exactly its own n indices.
    onThreads([&](int t) {
        for (int rep = 0; rep < loops; ++rep)
            parallel::parallelFor(n, [&, t](std::size_t) {
                totals[static_cast<std::size_t>(t)].fetch_add(
                    1, std::memory_order_relaxed);
            });
    });
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(totals[static_cast<std::size_t>(t)].load(),
                  static_cast<std::uint64_t>(loops) * n)
            << "submitter " << t;
}

TEST(ConcurrencyStress, ScopesAggregateExactCountsAndKeepLabelsPerThread)
{
    stats::Accumulator &acc = stats::accumulator(
        "time.test.concurrency.timed", "stress span accumulator");
    stats::Accumulator &timer = stats::accumulator(
        "test.concurrency.timer", "stress timer accumulator");
    static const diag::Counter events("test.concurrency.events",
                                      "stress breakdown counter");
    acc.reset();
    timer.reset();
    const std::uint64_t events_before =
        stats::counter("test.concurrency.events").value();
    diag::Collector::instance().reset();
    diag::Collector::instance().setEnabled(true);

    constexpr int per_thread = 500;
    std::atomic<int> wrong_labels{0};
    onThreads([&](int t) {
        const std::string mine = "thread" + std::to_string(t);
        for (int i = 0; i < per_thread; ++i) {
            OTFT_TRACE_SCOPE("test.concurrency.timed");
            trace::Scope timed(nullptr, &timer);
            trace::Scope ctx(trace::labelled, [&] { return mine; });
            if (diag::context() != mine)
                ++wrong_labels;
            events.add();
        }
    });
    diag::Collector::instance().setEnabled(false);
    const auto breakdown = diag::Collector::instance().breakdown();
    diag::Collector::instance().reset();

    const auto expected =
        static_cast<std::uint64_t>(kThreads) * per_thread;
    EXPECT_EQ(acc.count(), expected);
    EXPECT_EQ(timer.count(), expected);
    EXPECT_GE(acc.min(), 0.0);
    EXPECT_EQ(wrong_labels.load(), 0);
    EXPECT_EQ(stats::counter("test.concurrency.events").value(),
              events_before + expected);
    ASSERT_EQ(breakdown.size(), static_cast<std::size_t>(kThreads));
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(breakdown.at("thread" + std::to_string(t))
                      .at("test.concurrency.events"),
                  static_cast<std::uint64_t>(per_thread));
}

/** FNV-1a digest of the first `count` instructions of a cursor. */
std::uint64_t
digestStream(arch::FrontEndStream &stream, std::size_t count)
{
    arch::FrontEndCursor cursor(stream);
    std::uint64_t hash = 1469598103934665603ull;
    for (std::size_t i = 0; i < count; ++i, cursor.pop()) {
        for (std::uint64_t word :
             {static_cast<std::uint64_t>(cursor.word()), cursor.address()})
            hash = (hash ^ word) * 1099511628211ull;
    }
    return hash;
}

TEST(ConcurrencyStress, FrontEndCursorsReadIdenticalSequences)
{
    // Every cursor races the others to extend the stream, chunk by
    // chunk, and must read exactly what a stream read alone yields.
    const auto profile = workload::profileByName("mcf");
    constexpr std::size_t count =
        3 * arch::FrontEndStream::chunkInsts + 777;
    arch::FrontEndStream alone(profile, 7, 12);
    const std::uint64_t want = digestStream(alone, count);

    arch::FrontEndStream shared(profile, 7, 12);
    std::vector<std::uint64_t> got(kThreads, 0);
    onThreads([&](int t) {
        got[static_cast<std::size_t>(t)] = digestStream(shared, count);
    });
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(got[static_cast<std::size_t>(t)], want) << "cursor " << t;
}

} // namespace
} // namespace otft
