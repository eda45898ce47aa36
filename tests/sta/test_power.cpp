/** @file Unit tests for the power engine (future-work extension). */

#include <gtest/gtest.h>

#include "liberty/characterizer.hpp"
#include "liberty/silicon.hpp"
#include "netlist/generators.hpp"
#include "sta/power.hpp"
#include "util/logging.hpp"

namespace otft::sta {
namespace {

netlist::Netlist
adder(int width)
{
    netlist::Netlist nl;
    netlist::NetBuilder b(nl);
    const auto a = b.inputBus("a", width);
    const auto y = b.inputBus("y", width);
    b.outputBus("s", netlist::koggeStoneAdder(b, a, y).sum);
    return nl;
}

TEST(Power, ActivityPropagationBounds)
{
    const auto lib = liberty::makeSiliconLibrary();
    PowerEngine engine(lib);
    const auto nl = adder(16);
    const auto act = engine.propagate(nl);
    for (std::size_t g = 0; g < nl.numGates(); ++g) {
        EXPECT_GE(act.one[g], 0.0);
        EXPECT_LE(act.one[g], 1.0);
        EXPECT_GE(act.toggle[g], 0.0);
        EXPECT_LE(act.toggle[g], 1.0);
    }
}

TEST(Power, InverterPreservesToggleFlipsProbability)
{
    const auto lib = liberty::makeSiliconLibrary();
    netlist::Netlist nl;
    netlist::NetBuilder b(nl);
    const auto a = b.input("a");
    const auto n = b.notGate(a);
    b.output("o", n);
    PowerEngine engine(lib);
    const auto act = engine.propagate(nl);
    EXPECT_DOUBLE_EQ(act.one[static_cast<std::size_t>(n)], 0.5);
    EXPECT_DOUBLE_EQ(act.toggle[static_cast<std::size_t>(n)],
                     act.toggle[static_cast<std::size_t>(a)]);
}

TEST(Power, ConstantsNeverToggle)
{
    const auto lib = liberty::makeSiliconLibrary();
    netlist::Netlist nl;
    netlist::NetBuilder b(nl);
    const auto k = b.constant(true);
    const auto n = b.notGate(k);
    b.output("o", n);
    b.input("unused");
    PowerEngine engine(lib);
    const auto act = engine.propagate(nl);
    EXPECT_DOUBLE_EQ(act.toggle[static_cast<std::size_t>(k)], 0.0);
    EXPECT_DOUBLE_EQ(act.toggle[static_cast<std::size_t>(n)], 0.0);
    EXPECT_DOUBLE_EQ(act.one[static_cast<std::size_t>(n)], 0.0);
}

TEST(Power, DynamicScalesWithFrequency)
{
    const auto lib = liberty::makeSiliconLibrary();
    PowerEngine engine(lib);
    const auto nl = adder(16);
    const auto slow = engine.estimate(nl, 1e8);
    const auto fast = engine.estimate(nl, 4e8);
    EXPECT_NEAR(fast.dynamicPower / slow.dynamicPower, 4.0, 1e-9);
    EXPECT_DOUBLE_EQ(fast.staticPower, slow.staticPower);
}

TEST(Power, StaticScalesWithGateCount)
{
    const auto lib = liberty::makeSiliconLibrary();
    PowerEngine engine(lib);
    const auto small = engine.estimate(adder(8), 1e8);
    const auto big = engine.estimate(adder(32), 1e8);
    EXPECT_GT(big.staticPower, 2.0 * small.staticPower);
}

TEST(Power, ClockPowerNeedsFlops)
{
    const auto lib = liberty::makeSiliconLibrary();
    PowerEngine engine(lib);
    const auto comb = engine.estimate(adder(8), 1e8);
    EXPECT_DOUBLE_EQ(comb.clockPower, 0.0);

    netlist::Netlist seq;
    netlist::NetBuilder b(seq);
    const auto a = b.inputBus("a", 8);
    b.outputBus("q", b.dffBus(a));
    const auto with_flops = engine.estimate(seq, 1e8);
    EXPECT_GT(with_flops.clockPower, 0.0);
}

TEST(Power, RejectsNonPositiveFrequency)
{
    const auto lib = liberty::makeSiliconLibrary();
    PowerEngine engine(lib);
    EXPECT_THROW(engine.estimate(adder(4), 0.0), FatalError);
}

TEST(Power, OrganicStaticDominatesSiliconDynamicDominates)
{
    // The technology contrast the energy extension bench rests on.
    const auto si = liberty::makeSiliconLibrary();
    const auto org = liberty::cachedOrganicLibrary(
        "organic.lib");
    const auto nl = adder(16);

    const auto p_si =
        PowerEngine(si).estimate(nl, 3e8); // near its clock
    const auto p_org = PowerEngine(org).estimate(nl, 200.0);
    EXPECT_GT(p_si.dynamicPower, p_si.staticPower);
    EXPECT_GT(p_org.staticPower, 100.0 * p_org.dynamicPower);
}

} // namespace
} // namespace otft::sta
