/**
 * @file
 * Exact STA work counters. A propagation pass counts its arcs and nets
 * locally and adds them once, so these tests pin the totals: serially,
 * and from concurrent analyses. Built into test_concurrency so the
 * TSan lane (`ctest -L concurrency`) covers concurrent analyses.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "liberty/silicon.hpp"
#include "netlist/netlist.hpp"
#include "sta/sta.hpp"
#include "util/parallel.hpp"
#include "util/stats_registry.hpp"

namespace otft::sta {
namespace {

using netlist::GateKind;

/**
 * Nine gates, six counted arcs: nand2(a, k) has one constant fanin,
 * inv(k) has only constant fanins (so it times as a constant too),
 * and the DFF launches through its own clk->Q tables, not a fanin arc.
 */
netlist::Netlist
countedNetlist()
{
    netlist::Netlist nl;
    const auto a = nl.addInput("a");
    const auto b = nl.addInput("b");
    const auto k = nl.constant(true);
    const auto n1 = nl.addGate(GateKind::Nand2, a, k);     // 1 arc
    const auto n2 = nl.addGate(GateKind::Nand3, a, b, n1); // 3 arcs
    const auto d = nl.addDff(n2);                          // 0 arcs
    const auto n3 = nl.addGate(GateKind::Inv, d);          // 1 arc
    const auto kinv = nl.addGate(GateKind::Inv, k);        // 0 arcs
    const auto n4 = nl.addGate(GateKind::Nor2, kinv, n3);  // 1 arc
    nl.addOutput("o", n4);
    return nl;
}

constexpr std::uint64_t countedArcs = 6;

struct Counts
{
    std::uint64_t arcs;
    std::uint64_t wires;
    std::uint64_t passes;
    std::uint64_t analyses;
};

Counts
readCounts()
{
    return {stats::counter("sta.arcs.evaluated").value(),
            stats::counter("sta.wire.evaluations").value(),
            stats::counter("sta.levelization.passes").value(),
            stats::counter("sta.analyses").value()};
}

Counts
deltaSince(const Counts &before)
{
    const Counts now = readCounts();
    return {now.arcs - before.arcs, now.wires - before.wires,
            now.passes - before.passes, now.analyses - before.analyses};
}

TEST(StaCounts, AnalyzeCountsArcsNetsAndPassesExactly)
{
    const auto lib = liberty::makeSiliconLibrary();
    const StaEngine engine(lib);
    const auto nl = countedNetlist();
    ASSERT_EQ(nl.numGates(), 9u);

    const Counts before = readCounts();
    engine.analyze(nl);
    const Counts d = deltaSince(before);
    EXPECT_EQ(d.arcs, countedArcs);
    EXPECT_EQ(d.wires, nl.numGates());
    EXPECT_EQ(d.passes, 1u);
    EXPECT_EQ(d.analyses, 1u);

    // arrivalTimes() is one more pass, but not an analysis.
    const Counts before_arrivals = readCounts();
    engine.arrivalTimes(nl);
    const Counts da = deltaSince(before_arrivals);
    EXPECT_EQ(da.arcs, countedArcs);
    EXPECT_EQ(da.wires, nl.numGates());
    EXPECT_EQ(da.passes, 1u);
    EXPECT_EQ(da.analyses, 0u);
}

TEST(StaCounts, ConcurrentAnalysesAddExactlyFourSerialDeltas)
{
    const auto lib = liberty::makeSiliconLibrary();
    const StaEngine engine(lib);
    const auto nl = countedNetlist();
    const StaResult serial = engine.analyze(nl);

    constexpr std::size_t n = 4;
    parallel::JobsOverride pin(static_cast<int>(n));
    std::vector<StaResult> results(n);
    const Counts before = readCounts();
    parallel::parallelFor(
        n, [&](std::size_t i) { results[i] = engine.analyze(nl); });
    const Counts d = deltaSince(before);

    EXPECT_EQ(d.arcs, n * countedArcs);
    EXPECT_EQ(d.wires, n * nl.numGates());
    EXPECT_EQ(d.passes, n);
    EXPECT_EQ(d.analyses, n);
    for (const StaResult &r : results) {
        EXPECT_EQ(r.minClockPeriod, serial.minClockPeriod);
        EXPECT_EQ(r.criticalPath, serial.criticalPath);
    }
}

} // namespace
} // namespace otft::sta
