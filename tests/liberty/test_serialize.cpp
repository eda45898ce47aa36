/** @file Unit tests for library serialization. */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "liberty/serialize.hpp"
#include "liberty/silicon.hpp"
#include "util/logging.hpp"

namespace otft::liberty {
namespace {

TEST(Serialize, RoundTripPreservesEverything)
{
    const auto lib = makeSiliconLibrary();
    std::stringstream ss;
    writeLibrary(ss, lib);
    const auto back = readLibrary(ss);

    EXPECT_EQ(back.name(), lib.name());
    EXPECT_DOUBLE_EQ(back.vdd(), lib.vdd());
    EXPECT_DOUBLE_EQ(back.defaultSlew(), lib.defaultSlew());
    EXPECT_DOUBLE_EQ(back.clockMargin(), lib.clockMargin());
    EXPECT_DOUBLE_EQ(back.wire().resPerMeter, lib.wire().resPerMeter);
    ASSERT_EQ(back.cellNames(), lib.cellNames());

    for (const auto &name : lib.cellNames()) {
        const auto &a = lib.cell(name);
        const auto &b = back.cell(name);
        EXPECT_EQ(a.fanIn, b.fanIn);
        EXPECT_EQ(a.isSequential, b.isSequential);
        EXPECT_DOUBLE_EQ(a.area, b.area);
        EXPECT_DOUBLE_EQ(a.inputCap, b.inputCap);
        EXPECT_DOUBLE_EQ(a.leakage, b.leakage);
        ASSERT_EQ(a.arcs.size(), b.arcs.size());
        // Spot-check arc lookups at a few operating points.
        for (std::size_t arc = 0; arc < a.arcs.size(); ++arc) {
            for (double slew : {1e-12, 5e-11}) {
                for (double load : {1e-15, 2e-14}) {
                    EXPECT_DOUBLE_EQ(
                        a.arcs[arc].worstDelay(slew, load),
                        b.arcs[arc].worstDelay(slew, load));
                }
            }
        }
        if (a.isSequential) {
            EXPECT_DOUBLE_EQ(a.flop.clkToQ, b.flop.clkToQ);
            EXPECT_DOUBLE_EQ(a.flop.setup, b.flop.setup);
        }
    }
}

TEST(Serialize, FileSaveLoad)
{
    const std::string path = "test_serialize_tmp.lib";
    const auto lib = makeSiliconLibrary();
    saveLibrary(path, lib);
    const auto back = loadLibrary(path);
    EXPECT_EQ(back.name(), lib.name());
    std::remove(path.c_str());
}

TEST(Serialize, TryLoadMissingFile)
{
    EXPECT_FALSE(tryLoadLibrary("definitely/not/here.lib").has_value());
}

TEST(Serialize, TryLoadCorruptFile)
{
    setQuiet(true);
    const std::string path = "test_serialize_corrupt.lib";
    {
        std::ofstream os(path);
        os << "this is not a library\n";
    }
    EXPECT_FALSE(tryLoadLibrary(path).has_value());
    std::remove(path.c_str());
    setQuiet(false);
}

/**
 * A valid serialized silicon library whose first table header is
 * replaced by `header` (e.g. "delay_rise 4 4").
 */
std::string
libraryWithTableHeader(const std::string &header)
{
    std::ostringstream os;
    writeLibrary(os, makeSiliconLibrary());
    std::string text = os.str();
    const std::size_t at = text.find("delay_rise ");
    const std::size_t eol = text.find('\n', at);
    return text.replace(at, eol - at, header);
}

TEST(Serialize, TryLoadHugeTableCountsRebuilds)
{
    setQuiet(true);
    const std::string path = "test_serialize_huge.lib";
    // One absurd axis, and two axes whose product wraps to 0 in 64
    // bits: both must be rejected before anything is allocated.
    for (const char *header : {"delay_rise 4611686018427387904 2",
                               "delay_rise 4294967296 4294967296"}) {
        {
            std::ofstream os(path);
            os << libraryWithTableHeader(header);
        }
        EXPECT_FALSE(tryLoadLibrary(path).has_value()) << header;
    }
    std::remove(path.c_str());
    setQuiet(false);
}

TEST(Serialize, LoadOrBuildCachesToDisk)
{
    const std::string path = "test_serialize_cache.lib";
    std::remove(path.c_str());
    int builds = 0;
    auto builder = [&] {
        ++builds;
        return makeSiliconLibrary();
    };
    const auto a = loadOrBuild(path, builder);
    const auto b = loadOrBuild(path, builder);
    EXPECT_EQ(builds, 1);
    EXPECT_EQ(a.name(), b.name());
    std::remove(path.c_str());
}

TEST(Serialize, MalformedStreamIsFatal)
{
    std::stringstream ss("garbage tokens");
    EXPECT_THROW(readLibrary(ss), FatalError);
}

} // namespace
} // namespace otft::liberty
