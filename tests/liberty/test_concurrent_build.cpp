/**
 * @file
 * Concurrent Characterizer::build() calls on one shared Characterizer.
 * build() is const, so two threads may call it at once; each must
 * produce the same library as a serial build, byte for byte. Built
 * into test_concurrency so the TSan lane (`ctest -L concurrency`)
 * reports any state the two builds share.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>

#include "liberty/characterizer.hpp"
#include "liberty/serialize.hpp"
#include "util/parallel.hpp"
#include "util/result_cache.hpp"

namespace otft::liberty {
namespace {

std::string
libraryText(const Characterizer &characterizer)
{
    std::ostringstream os;
    writeLibrary(os, characterizer.build());
    return os.str();
}

TEST(ParallelDeterminism, ConcurrentBuildsOfOneCharacterizerMatchSerial)
{
    // The smallest grid the flop takes: it quotes clk->Q at the
    // second load. Uncached, so both concurrent builds solve every
    // point instead of reading back what the serial build stored.
    CharacterizerConfig mini;
    mini.slewAxis = {4e-6, 64e-6};
    mini.loadMultipliers = {0.5, 2.0};
    cache::EnabledOverride off(false);
    const Characterizer characterizer(cells::CellFactory{}, mini);

    std::string serial;
    {
        parallel::JobsOverride pin(1);
        serial = libraryText(characterizer);
    }

    parallel::JobsOverride pin(4);
    std::string first, second;
    std::thread a([&] { first = libraryText(characterizer); });
    std::thread b([&] { second = libraryText(characterizer); });
    a.join();
    b.join();

    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(first, serial);
    EXPECT_EQ(second, serial);
}

} // namespace
} // namespace otft::liberty
