/**
 * @file
 * Tests for the organic NLDM characterization. The full build is a
 * few seconds of transient simulation, so the suite characterizes a
 * reduced grid once in a fixture shared across tests.
 */

#include <cmath>
#include <cstdint>
#include <sstream>

#include <gtest/gtest.h>

#include "liberty/characterizer.hpp"
#include "liberty/serialize.hpp"
#include "util/logging.hpp"
#include "util/result_cache.hpp"

namespace otft::liberty {
namespace {

class OrganicCharacterization : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        setQuiet(true);
        CharacterizerConfig config;
        // Coarse 2x2 grid keeps the suite quick.
        config.slewAxis = {4e-6, 64e-6};
        config.loadMultipliers = {0.5, 6.0};
        library = new CellLibrary(makeOrganicLibrary(config));
    }

    static void
    TearDownTestSuite()
    {
        delete library;
        library = nullptr;
    }

    static CellLibrary *library;
};

CellLibrary *OrganicCharacterization::library = nullptr;

TEST_F(OrganicCharacterization, HasAllSixCells)
{
    for (const char *name :
         {"inv", "nand2", "nand3", "nor2", "nor3", "dff"})
        EXPECT_TRUE(library->hasCell(name)) << name;
    EXPECT_EQ(library->cellNames().size(), 6u);
}

TEST_F(OrganicCharacterization, DelaysInOrganicRange)
{
    // Organic gate delays are tens of microseconds — about six orders
    // of magnitude slower than silicon, per the mobility gap.
    const auto &inv = library->cell("inv");
    const double d = inv.arc(0).worstDelay(library->defaultSlew(),
                                           inv.inputCap);
    EXPECT_GT(d, 5e-6);
    EXPECT_LT(d, 1e-3);
}

TEST_F(OrganicCharacterization, DelayIncreasesWithLoad)
{
    const auto &inv = library->cell("inv");
    const double d1 = inv.arc(0).worstDelay(library->defaultSlew(),
                                            inv.inputCap);
    const double d6 = inv.arc(0).worstDelay(library->defaultSlew(),
                                            6.0 * inv.inputCap);
    EXPECT_GT(d6, 1.2 * d1);
}

TEST_F(OrganicCharacterization, HigherFanInIsSlower)
{
    const double slew = library->defaultSlew();
    const double load = library->cell("inv").inputCap;
    const double d_inv =
        library->cell("inv").arc(0).worstDelay(slew, load);
    const double d_nand3 =
        library->cell("nand3").arc(0).worstDelay(slew, load);
    EXPECT_GT(d_nand3, d_inv);
}

TEST_F(OrganicCharacterization, FlopTimingPopulated)
{
    const auto &dff = library->cell("dff");
    EXPECT_TRUE(dff.isSequential);
    EXPECT_GT(dff.flop.clkToQ, 1e-5);
    EXPECT_LT(dff.flop.clkToQ, 2e-3);
    EXPECT_GE(dff.flop.setup, 0.0);
    EXPECT_GE(dff.flop.hold, 0.0);
    EXPECT_GT(dff.flop.clockPinCap, 0.0);
    // The flop is by far the largest cell.
    EXPECT_GT(dff.area, 4.0 * library->cell("nand3").area);
}

TEST_F(OrganicCharacterization, LeakagePowersPositive)
{
    for (const auto &name : library->cellNames())
        EXPECT_GT(library->cell(name).leakage, 0.0) << name;
}

TEST_F(OrganicCharacterization, WireParametersAreOrganicScale)
{
    const auto &wire = library->wire();
    // Millimeter-scale nets, printed-metal resistance.
    EXPECT_GT(wire.lengthBase, 1e-4);
    EXPECT_GT(wire.resPerMeter, 1e3);
    // The central paper fact: wire delay is negligible relative to
    // gate delay. A fanout-4 net's Elmore delay must be under 1% of
    // an inverter delay.
    const auto &inv = library->cell("inv");
    const double length =
        wire.lengthBase + 4.0 * wire.lengthPerFanout;
    const double wire_delay = wire.resPerMeter * length *
                              (0.5 * wire.capPerMeter * length +
                               4.0 * inv.inputCap);
    const double gate_delay = inv.arc(0).worstDelay(
        library->defaultSlew(), 4.0 * inv.inputCap);
    EXPECT_LT(wire_delay, 0.01 * gate_delay);
}

TEST_F(OrganicCharacterization, ArcsCoverAllPins)
{
    EXPECT_EQ(library->cell("nand3").arcs.size(), 3u);
    EXPECT_EQ(library->cell("nor2").arcs.size(), 2u);
    EXPECT_EQ(library->cell("inv").arcs.size(), 1u);
}

/**
 * Golden bytes of the reduced-grid library exactly as written to
 * disk: every NLDM entry of the five combinational cells plus the
 * flop's clk->Q table, setup and hold, at round-trip precision. A
 * change that claims to leave characterization bit-exact must leave
 * this hash alone.
 */
TEST_F(OrganicCharacterization, LibraryBytesHashIsBitExact)
{
    std::ostringstream out;
    writeLibrary(out, *library);
    EXPECT_EQ(cache::KeyHasher().add(out.str()).digest(), 0x07bb1e4339690478ull);
}

/**
 * The setup search first probes lead 1.3 ms / 32, where the golden
 * flop always captures. A device at a fifth of the golden mobility
 * does not, so the search must fall back to the full ten halvings of
 * [0, 1.3 ms]: its setup lies above the probe and on that search's
 * 1.3 ms / 1024 grid.
 */
TEST(FlopSetupSearch, SlowDeviceFallsBackToTheFullSearch)
{
    setQuiet(true);
    device::Level61Params params;
    params.u0 *= 0.2;
    CharacterizerConfig config;
    // Fanout-1 stays the nominal (second) load; heavier loads would
    // not settle inside the testbench window at this mobility.
    config.loadMultipliers = {0.25, 1.0};
    const Characterizer slow(
        cells::CellFactory(params, cells::CellSizing{},
                           cells::SupplyConfig{}),
        config);
    const double setup = slow.characterizeFlop().flop.setup;
    EXPECT_GT(setup, 1.3e-3 / 32.0);
    EXPECT_LT(setup, 1.3e-3);
    const double units = setup / (1.3e-3 / 1024.0);
    EXPECT_EQ(units, std::round(units)) << "setup " << setup;
}

} // namespace
} // namespace otft::liberty
