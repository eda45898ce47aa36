/** @file Unit tests for util/stats_registry. */

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/stats_registry.hpp"

namespace otft::stats {
namespace {

/** Dump the registry and parse it back with the project's reader. */
json::Value
parsedDump()
{
    std::stringstream ss;
    Registry::instance().dumpJson(ss);
    return json::parse(ss.str());
}

/** A parsed histogram's bin counts. */
std::vector<std::uint64_t>
binsOf(const json::Value &hist)
{
    std::vector<std::uint64_t> bins;
    for (const json::Value &bin : hist.at("bins").asArray())
        bins.push_back(static_cast<std::uint64_t>(bin.asNumber()));
    return bins;
}

TEST(StatsRegistry, CounterRegistrationIsIdempotent)
{
    Counter &a = counter("test.reg.counter", "a test counter");
    Counter &b = counter("test.reg.counter");
    EXPECT_EQ(&a, &b);
    EXPECT_TRUE(Registry::instance().has("test.reg.counter"));
    EXPECT_FALSE(Registry::instance().has("test.reg.missing"));
}

TEST(StatsRegistry, CounterAccumulates)
{
    Counter &c = counter("test.acc.counter");
    c.reset();
    ++c;
    c += 41;
    EXPECT_EQ(c.value(), 42u);
}

TEST(StatsRegistry, AccumulatorTracksMinMeanMax)
{
    Accumulator &a = accumulator("test.acc.accumulator");
    a.reset();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.min(), 0.0);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.sample(3.0);
    a.sample(-1.0);
    a.sample(4.0);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.sum(), 6.0);
    EXPECT_DOUBLE_EQ(a.min(), -1.0);
    EXPECT_DOUBLE_EQ(a.max(), 4.0);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(StatsRegistry, HistogramBinsSamples)
{
    Histogram &h =
        histogram("test.acc.histogram", 0.0, 10.0, 5, "5 bins of 2");
    h.reset();
    h.sample(-0.5);  // underflow
    h.sample(0.0);   // bin 0
    h.sample(1.999); // bin 0
    h.sample(2.0);   // bin 1
    h.sample(9.999); // bin 4
    h.sample(10.0);  // overflow (hi is exclusive)
    h.sample(100.0); // overflow
    ASSERT_EQ(h.bins().size(), 5u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.bins()[0], 2u);
    EXPECT_EQ(h.bins()[1], 1u);
    EXPECT_EQ(h.bins()[2], 0u);
    EXPECT_EQ(h.bins()[3], 0u);
    EXPECT_EQ(h.bins()[4], 1u);
    EXPECT_EQ(h.totalSamples(), 7u);
}

TEST(StatsRegistry, HistogramCountsNanAsOverflow)
{
    // NaN fails both range tests; it must not reach the bin-index
    // cast, which is undefined for NaN.
    Histogram &h = histogram("test.nan.histogram", 0.0, 4.0, 4);
    h.reset();
    h.sample(std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.overflow(), 1u);
    for (std::uint64_t bin : h.bins())
        EXPECT_EQ(bin, 0u);
    EXPECT_EQ(h.totalSamples(), 1u);
}

TEST(StatsRegistry, HistogramPercentilesInterpolateWithinBins)
{
    Histogram &h = histogram("test.pct.histogram", 0.0, 10.0, 5,
                             "percentile check");
    h.reset();
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0); // empty reports lo

    // 50 samples in bin 0 ([0,2)), 50 in bin 1 ([2,4)): the median
    // sits exactly at the bin boundary, p95 90% into bin 1.
    for (int i = 0; i < 50; ++i) {
        h.sample(1.0);
        h.sample(3.0);
    }
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.p50(), 2.0);
    EXPECT_DOUBLE_EQ(h.p95(), 3.8);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 4.0);
    // Out-of-range requests clamp rather than extrapolate.
    EXPECT_DOUBLE_EQ(h.percentile(150.0), 4.0);
    EXPECT_DOUBLE_EQ(h.percentile(-5.0), 0.0);

    // Overflow mass is excluded from the percentile population.
    h.sample(1e9);
    EXPECT_DOUBLE_EQ(h.p50(), 2.0);
}

TEST(StatsRegistry, PercentilesSurviveJsonRoundTrip)
{
    Histogram &h = histogram("test.pct.roundtrip", 0.0, 8.0, 4);
    h.reset();
    for (int i = 0; i < 10; ++i)
        h.sample(1.0);
    const json::Value doc = parsedDump();
    ASSERT_TRUE(doc.has("test.pct.roundtrip"));
    const json::Value &ph = doc.at("test.pct.roundtrip");
    EXPECT_DOUBLE_EQ(ph.number("p50"), h.p50());
    EXPECT_DOUBLE_EQ(ph.number("p95"), h.p95());
    EXPECT_GT(ph.number("p95"), ph.number("p50"));
}

TEST(StatsRegistry, CounterSnapshotListsOnlyCounters)
{
    Registry &reg = Registry::instance();
    Counter &c = counter("test.snap.counter");
    accumulator("test.snap.accumulator").sample(1.0);
    c.reset();
    c += 5;
    const auto snap = reg.counterSnapshot();
    const auto it = snap.find("test.snap.counter");
    ASSERT_NE(it, snap.end());
    EXPECT_EQ(it->second, 5u);
    EXPECT_EQ(snap.count("test.snap.accumulator"), 0u);
}

TEST(StatsRegistry, KindMismatchIsFatal)
{
    counter("test.kind.scalar");
    EXPECT_THROW(accumulator("test.kind.scalar"), FatalError);
}

TEST(StatsRegistry, ResetZeroesValuesButKeepsRegistrations)
{
    Registry &reg = Registry::instance();
    Counter &c = counter("test.reset.counter");
    Accumulator &a = accumulator("test.reset.accumulator");
    c += 7;
    a.sample(1.25);
    reg.reset();
    EXPECT_TRUE(reg.has("test.reset.counter"));
    EXPECT_TRUE(reg.has("test.reset.accumulator"));
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(&c, &counter("test.reset.counter"));
}

TEST(StatsRegistry, JsonDumpRoundTrips)
{
    Counter &c = counter("test.json.counter");
    Accumulator &a = accumulator("test.json.accumulator");
    Histogram &h = histogram("test.json.histogram", 0.0, 4.0, 4);
    c.reset();
    a.reset();
    h.reset();
    c += 11;
    a.sample(0.5);
    a.sample(2.5);
    h.sample(-1.0);
    h.sample(1.5);
    h.sample(99.0);

    const json::Value doc = parsedDump();

    EXPECT_DOUBLE_EQ(doc.number("test.json.counter"), 11.0);
    EXPECT_DOUBLE_EQ(doc.number("test.json.missing", -1.0), -1.0);

    ASSERT_TRUE(doc.has("test.json.accumulator"));
    const json::Value &pa = doc.at("test.json.accumulator");
    EXPECT_EQ(pa.number("count"), 2.0);
    EXPECT_DOUBLE_EQ(pa.number("sum"), 3.0);
    EXPECT_DOUBLE_EQ(pa.number("min"), 0.5);
    EXPECT_DOUBLE_EQ(pa.number("max"), 2.5);
    EXPECT_DOUBLE_EQ(pa.number("mean"), 1.5);

    ASSERT_TRUE(doc.has("test.json.histogram"));
    const json::Value &ph = doc.at("test.json.histogram");
    EXPECT_DOUBLE_EQ(ph.number("lo"), 0.0);
    EXPECT_DOUBLE_EQ(ph.number("hi"), 4.0);
    EXPECT_EQ(ph.number("underflow"), 1.0);
    EXPECT_EQ(ph.number("overflow"), 1.0);
    const std::vector<std::uint64_t> bins = binsOf(ph);
    ASSERT_EQ(bins.size(), 4u);
    EXPECT_EQ(bins[1], 1u);
}

TEST(StatsRegistry, TextDumpMentionsNonEmptyNodes)
{
    Counter &c = counter("test.text.counter", "text dump check");
    c.reset();
    c += 3;
    std::stringstream ss;
    Registry::instance().dumpText(ss);
    EXPECT_NE(ss.str().find("test.text.counter"), std::string::npos);
    EXPECT_NE(ss.str().find("text dump check"), std::string::npos);
}

TEST(StatsRegistry, TextDumpShowsHistogramUnderOverflow)
{
    Histogram &h =
        histogram("test.text.histogram", 0.0, 4.0, 4, "tail check");
    h.reset();
    h.sample(-2.0);
    h.sample(1.0);
    h.sample(8.0);
    h.sample(9.0);
    std::stringstream ss;
    Registry::instance().dumpText(ss);
    EXPECT_NE(ss.str().find("under=1"), std::string::npos);
    EXPECT_NE(ss.str().find("over=2"), std::string::npos);
}

TEST(StatsRegistry, DumpJsonEscapesArbitraryNodeNames)
{
    // Nothing restricts node names to identifier characters; the JSON
    // writer must escape them or the whole document is unparseable.
    Counter &c =
        counter("test.json.\"quoted\"\\name", "escaping check");
    c.reset();
    c += 9;
    std::stringstream ss;
    Registry::instance().dumpJson(ss);
    const json::Value doc = json::parse(ss.str());
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.number("test.json.\"quoted\"\\name"), 9.0);
}

TEST(StatsRegistry, ParsedDumpMatchesLiveNodes)
{
    Counter &c = counter("test.snap.counter");
    Accumulator &a = accumulator("test.snap.accumulator");
    Histogram &h = histogram("test.snap.histogram", 0.0, 4.0, 4);
    c.reset();
    a.reset();
    h.reset();
    c += 7;
    a.sample(1.0);
    a.sample(3.0);
    h.sample(-1.0);
    h.sample(2.0);
    h.sample(9.0);

    const json::Value parsed = parsedDump();

    EXPECT_EQ(parsed.number("test.snap.counter"), 7.0);
    const json::Value &pa = parsed.at("test.snap.accumulator");
    EXPECT_EQ(static_cast<std::uint64_t>(pa.number("count")),
              a.count());
    EXPECT_EQ(pa.number("sum"), a.sum());
    EXPECT_EQ(pa.number("min"), a.min());
    EXPECT_EQ(pa.number("max"), a.max());
    EXPECT_EQ(pa.number("mean"), a.mean());
    const json::Value &ph = parsed.at("test.snap.histogram");
    EXPECT_EQ(ph.number("lo"), h.lo());
    EXPECT_EQ(ph.number("hi"), h.hi());
    EXPECT_EQ(static_cast<std::uint64_t>(ph.number("underflow")),
              h.underflow());
    EXPECT_EQ(static_cast<std::uint64_t>(ph.number("overflow")),
              h.overflow());
    EXPECT_EQ(ph.number("p50"), h.p50());
    EXPECT_EQ(ph.number("p95"), h.p95());
    EXPECT_EQ(binsOf(ph), h.binsSnapshot());
}

} // namespace
} // namespace otft::stats
