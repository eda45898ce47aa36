/** @file Unit tests for the cache model. */

#include <gtest/gtest.h>

#include "arch/memory.hpp"
#include "util/logging.hpp"

namespace otft::arch {
namespace {

TEST(Cache, ColdMissThenHit)
{
    Cache cache(1024, 2, 64);
    EXPECT_FALSE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1010)); // same line
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 2u);
}

TEST(Cache, LruEviction)
{
    // 2-way, 1 set of interest: fill both ways, touch the first, add
    // a third line: the second way (least recent) must be evicted.
    Cache cache(2 * 64, 2, 64); // exactly one set
    cache.access(0 * 64);
    cache.access(1 * 64);
    cache.access(0 * 64);       // refresh line 0
    cache.access(2 * 64);       // evicts line 1
    EXPECT_TRUE(cache.access(0 * 64));
    EXPECT_FALSE(cache.access(1 * 64));
}

TEST(Cache, WorkingSetBelowCapacityAllHits)
{
    Cache cache(32 * 1024, 4, 64);
    for (int pass = 0; pass < 2; ++pass)
        for (std::uint64_t a = 0; a < 16 * 1024; a += 64)
            cache.access(a);
    // Second pass is all hits.
    EXPECT_EQ(cache.misses(), 16u * 1024 / 64);
}

TEST(Cache, ThrashingAboveCapacity)
{
    Cache cache(4 * 1024, 4, 64);
    std::uint64_t misses_before = 0;
    for (int pass = 0; pass < 3; ++pass) {
        misses_before = cache.misses();
        for (std::uint64_t a = 0; a < 64 * 1024; a += 64)
            cache.access(a);
    }
    // Sequential sweep of 16x capacity: every access misses.
    EXPECT_EQ(cache.misses() - misses_before, 64u * 1024 / 64);
}

TEST(Cache, RejectsNonPowerOfTwoSetCount)
{
    EXPECT_THROW(Cache(3 * 64, 1, 64), FatalError); // 3 sets
}

TEST(MemoryModel, LatencyTiers)
{
    MemoryModel mem(2, 12, 120);
    const std::uint64_t addr = 0x4000;
    EXPECT_EQ(mem.loadLatency(addr), 120); // cold
    EXPECT_EQ(mem.loadLatency(addr), 2);   // L1 hit
}

TEST(MemoryModel, NextLinePrefetchHelpsStreams)
{
    MemoryModel mem(2, 12, 120);
    int slow = 0;
    for (std::uint64_t a = 0; a < 64 * 1024; a += 8)
        if (mem.loadLatency(0x100000 + a) > 12)
            ++slow;
    // The next-line prefetcher halves the slow accesses of a
    // sequential stream (every other line is prefetched; 1024 lines
    // would all be slow without it).
    EXPECT_LE(slow, static_cast<int>(64 * 1024 / 64 / 2));
    EXPECT_GT(slow, 0);
}

TEST(MemoryModel, StoresFillCaches)
{
    MemoryModel mem(2, 12, 120);
    mem.store(0x9000);
    EXPECT_EQ(mem.loadLatency(0x9000), 2);
}

} // namespace
} // namespace otft::arch
