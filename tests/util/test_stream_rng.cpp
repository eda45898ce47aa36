/** @file Property tests for the counter-based stream-splittable RNG. */

#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "util/parallel.hpp"
#include "util/stream_rng.hpp"

namespace otft {
namespace {

TEST(StreamRng, DrawsArePureFunctionsOfSeedKeyAndIndex)
{
    StreamRng a(42, "mc/sample/3");
    StreamRng b(42, "mc/sample/3");
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(StreamRng, PathKeyIsStableAcrossProcessRestarts)
{
    // FNV-1a of a fixed string is a constant — if this changes, every
    // persisted Monte Carlo artifact silently resamples.
    EXPECT_EQ(streamKey(""), 1469598103934665603ULL);
    EXPECT_EQ(streamKey("mc/sample/7/cell/nand2"),
              streamKey("mc/sample/7/cell/nand2"));
    EXPECT_NE(streamKey("mc/sample/7/cell/nand2"),
              streamKey("mc/sample/7/cell/nand3"));
    // Concatenation boundaries matter: "ab"+"c" != "a"+"bc".
    EXPECT_NE(streamKey("abc"), streamKey("ab/c"));
}

TEST(StreamRng, SubstreamsAreIndependentOfDrawPosition)
{
    // Deriving a substream must not consume draws, and the substream
    // must not depend on how many draws its parent has produced.
    StreamRng fresh(7);
    StreamRng advanced(7);
    for (int i = 0; i < 100; ++i)
        advanced.next();
    StreamRng sub_fresh = fresh.substream("cell/inv");
    StreamRng sub_advanced = advanced.substream("cell/inv");
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(sub_fresh.next(), sub_advanced.next());
    EXPECT_EQ(fresh.position(), 0u);
}

TEST(StreamRng, SiblingSubstreamsDiffer)
{
    StreamRng root(1);
    std::set<std::uint64_t> firsts;
    for (std::uint64_t i = 0; i < 256; ++i) {
        StreamRng sub = root.substream(i);
        firsts.insert(sub.next());
    }
    EXPECT_EQ(firsts.size(), 256u);

    StreamRng by_path_a = root.substream("die");
    StreamRng by_path_b = root.substream("cell/inv");
    EXPECT_NE(by_path_a.next(), by_path_b.next());
}

TEST(StreamRng, SeedsGiveDisjointStreams)
{
    StreamRng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 256; ++i)
        if (a.next() == b.next())
            ++equal;
    EXPECT_EQ(equal, 0);
}

TEST(StreamRng, UniformCoversUnitIntervalUniformly)
{
    StreamRng rng(11);
    const int n = 20000;
    int buckets[10] = {};
    double sum = 0.0;
    for (int i = 0; i < n; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        ++buckets[static_cast<int>(u * 10.0)];
        sum += u;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.01);
    for (int b = 0; b < 10; ++b)
        EXPECT_NEAR(buckets[b], n / 10, 5.0 * std::sqrt(n / 10.0));
}

TEST(StreamRng, NormalHasUnitMoments)
{
    StreamRng rng(13);
    const int n = 20000;
    double sum = 0.0, sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sq += x * x;
    }
    const double mean = sum / n;
    EXPECT_NEAR(mean, 0.0, 0.03);
    EXPECT_NEAR(std::sqrt(sq / n - mean * mean), 1.0, 0.03);
}

/** Per-index draws through the worker pool at a given jobs count. */
std::vector<std::uint64_t>
drawsAtJobs(int jobs)
{
    parallel::JobsOverride guard(jobs);
    const StreamRng root(2026, "determinism");
    return parallel::orderedMap<std::uint64_t>(512, [&](std::size_t i) {
        StreamRng sub = root.substream(i);
        // A couple of draws plus a nested per-device substream,
        // mirroring the MC characterizer's tree.
        const std::uint64_t a = sub.next();
        StreamRng dev = sub.substream("cell/nand2");
        return a ^ dev.next();
    });
}

TEST(StreamRng, BitIdenticalAcrossJobCounts)
{
    const auto serial = drawsAtJobs(1);
    for (const int jobs_count : {2, 3, 8})
        EXPECT_EQ(serial, drawsAtJobs(jobs_count))
            << "jobs " << jobs_count;
}

} // namespace
} // namespace otft
