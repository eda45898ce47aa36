/** @file Unit tests for the static timing engine. */

#include <string>

#include <gtest/gtest.h>

#include "liberty/silicon.hpp"
#include "netlist/generators.hpp"
#include "sta/sta.hpp"

namespace otft::sta {
namespace {

netlist::Netlist
inverterChain(int length)
{
    netlist::Netlist nl;
    netlist::NetBuilder b(nl);
    netlist::GateId g = b.input("a");
    for (int i = 0; i < length; ++i)
        g = b.notGate(g);
    b.output("o", g);
    return nl;
}

TEST(Sta, ChainDelayScalesWithLength)
{
    const auto lib = liberty::makeSiliconLibrary();
    StaEngine engine(lib);
    const auto r4 = engine.analyze(inverterChain(4));
    const auto r16 = engine.analyze(inverterChain(16));
    EXPECT_GT(r16.worstArrival, r4.worstArrival);
    // Roughly linear in chain length once overheads cancel.
    const double per_gate_4 = r4.worstArrival / 4.0;
    const double per_gate_16 = r16.worstArrival / 16.0;
    EXPECT_NEAR(per_gate_16 / per_gate_4, 1.0, 0.5);
}

TEST(Sta, AreaAndCountsAccumulate)
{
    const auto lib = liberty::makeSiliconLibrary();
    StaEngine engine(lib);
    const auto r = engine.analyze(inverterChain(10));
    EXPECT_EQ(r.cellCount, 10u);
    EXPECT_NEAR(r.area, 10.0 * lib.cell("inv").area, 1e-18);
    EXPECT_NEAR(r.leakage, 10.0 * lib.cell("inv").leakage, 1e-12);
    EXPECT_EQ(r.flopCount, 0u);
}

TEST(Sta, CriticalPathWalkback)
{
    const auto lib = liberty::makeSiliconLibrary();
    StaEngine engine(lib);
    const auto nl = inverterChain(7);
    const auto r = engine.analyze(nl);
    // Path covers the whole chain plus the endpoint.
    EXPECT_GE(r.criticalPath.size(), 7u);
}

TEST(Sta, RegisteredNetlistUsesSetupAndClkq)
{
    const auto lib = liberty::makeSiliconLibrary();
    // in -> inv -> dff -> inv -> out
    netlist::Netlist nl;
    netlist::NetBuilder b(nl);
    auto g = b.input("a");
    g = b.notGate(g);
    g = b.dff(g);
    g = b.notGate(g);
    b.output("o", g);

    StaEngine engine(lib);
    const auto r = engine.analyze(nl);
    EXPECT_EQ(r.flopCount, 1u);
    // Period covers at least clk->Q + one inverter + setup + margin.
    const auto &dff = lib.cell("dff");
    EXPECT_GT(r.minClockPeriod,
              dff.flop.clkToQ + dff.flop.setup + lib.clockMargin());
}

TEST(Sta, ConstantsDoNotConstrain)
{
    const auto lib = liberty::makeSiliconLibrary();
    netlist::Netlist nl;
    netlist::NetBuilder b(nl);
    const auto a = b.input("a");
    const auto k = b.constant(true);
    const auto n = b.nand2(a, k);
    b.output("o", n);
    StaEngine engine(lib);
    const auto r = engine.analyze(nl);
    EXPECT_GT(r.minClockPeriod, 0.0);
    // A pure-constant cone output would contribute no timing at all.
    netlist::Netlist nl2;
    netlist::NetBuilder b2(nl2);
    const auto k2 = b2.constant(false);
    b2.input("unused");
    b2.output("o", b2.notGate(k2));
    const auto r2 = engine.analyze(nl2);
    EXPECT_NEAR(r2.minClockPeriod,
                lib.clockMargin(), 1e-12);
}

TEST(Sta, WireDisableSpeedsUpSilicon)
{
    const auto lib = liberty::makeSiliconLibrary();
    const auto nl = inverterChain(20);
    StaConfig with;
    StaConfig without;
    without.wireEnabled = false;
    const auto rw = StaEngine(lib, with).analyze(nl);
    const auto rn = StaEngine(lib, without).analyze(nl);
    EXPECT_GT(rw.minClockPeriod, rn.minClockPeriod);
}

TEST(Sta, SlewPropagationSlowsHeavyLoads)
{
    const auto lib = liberty::makeSiliconLibrary();
    // One inverter driving a wide NAND fan-in tree is slower than the
    // same inverter driving a single gate.
    netlist::Netlist light, heavy;
    {
        netlist::NetBuilder b(light);
        auto g = b.input("a");
        g = b.notGate(g);
        b.output("o", b.notGate(g));
    }
    {
        netlist::NetBuilder b(heavy);
        auto g = b.input("a");
        g = b.notGate(g);
        netlist::GateId last = g;
        for (int i = 0; i < 5; ++i)
            last = b.nand2(g, last);
        b.output("o", last);
    }
    StaEngine engine(lib);
    EXPECT_GT(engine.analyze(heavy).worstArrival,
              engine.analyze(light).worstArrival);
}

TEST(Sta, BlockSpanSlowsBigBlocks)
{
    // The wireload model's block-span term: every net routes farther
    // in a bigger block. A disconnected copy of the adder leaves the
    // critical path's gates and fanouts as they were, so only the
    // span term can slow the larger netlist down.
    const auto lib = liberty::makeSiliconLibrary();
    const auto add_adder = [](netlist::NetBuilder &b,
                              const std::string &prefix) {
        const auto a = b.inputBus(prefix + "a", 32);
        const auto y = b.inputBus(prefix + "y", 32);
        b.outputBus(prefix + "s", netlist::koggeStoneAdder(b, a, y).sum);
    };
    netlist::Netlist alone;
    {
        netlist::NetBuilder b(alone);
        add_adder(b, "");
    }
    netlist::Netlist pair;
    {
        netlist::NetBuilder b(pair);
        add_adder(b, "");
        add_adder(b, "twin_");
    }
    const StaEngine engine(lib);
    EXPECT_GT(engine.analyze(pair).minClockPeriod,
              engine.analyze(alone).minClockPeriod);
}

/** Sweep: deeper adders time longer, monotonically. */
class AdderTiming : public ::testing::TestWithParam<int>
{
};

TEST_P(AdderTiming, PeriodPositiveAndBounded)
{
    const auto lib = liberty::makeSiliconLibrary();
    netlist::Netlist nl;
    {
        netlist::NetBuilder b(nl);
        const int w = GetParam();
        const auto a = b.inputBus("a", w);
        const auto y = b.inputBus("y", w);
        b.outputBus("s", netlist::koggeStoneAdder(b, a, y).sum);
    }
    StaEngine engine(lib);
    const auto r = engine.analyze(nl);
    EXPECT_GT(r.minClockPeriod, 0.0);
    EXPECT_LT(r.minClockPeriod, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Widths, AdderTiming,
                         ::testing::Values(4, 8, 16, 32, 64));

} // namespace
} // namespace otft::sta
