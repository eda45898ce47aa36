/** @file Unit tests for the delay-balanced pipeliner. */

#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "liberty/silicon.hpp"
#include "netlist/bufferize.hpp"
#include "netlist/generators.hpp"
#include "sta/pipeline.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace otft::sta {
namespace {

netlist::Netlist
makeMultiplier(int width)
{
    netlist::Netlist nl;
    netlist::NetBuilder b(nl);
    const auto a = b.inputBus("a", width);
    const auto y = b.inputBus("y", width);
    b.outputBus("p", netlist::arrayMultiplier(b, a, y));
    return netlist::bufferize(nl, 6);
}

std::vector<bool>
randomInputs(std::size_t count, Rng &rng)
{
    std::vector<bool> in(count);
    for (std::size_t i = 0; i < count; ++i)
        in[i] = rng.bernoulli(0.5);
    return in;
}

/**
 * Run a pipelined netlist for enough cycles to flush the pipe and
 * return the final outputs for constant inputs.
 */
std::vector<bool>
settledOutputs(const netlist::Netlist &nl, const std::vector<bool> &in,
               int cycles)
{
    std::vector<bool> state(nl.dffs().size(), false);
    std::vector<bool> vals;
    for (int c = 0; c < cycles; ++c) {
        std::vector<bool> next;
        vals = nl.evaluate(in, state, &next);
        state = std::move(next);
    }
    std::vector<bool> out;
    for (const auto &port : nl.outputs())
        out.push_back(vals[static_cast<std::size_t>(port.gate)]);
    return out;
}

/** Expect two netlists to be the same gate for gate. */
void
expectSameNetlist(const netlist::Netlist &a, const netlist::Netlist &b)
{
    ASSERT_EQ(a.numGates(), b.numGates());
    for (std::size_t g = 0; g < a.numGates(); ++g) {
        EXPECT_EQ(a.gates()[g].kind, b.gates()[g].kind) << "gate " << g;
        EXPECT_EQ(a.gates()[g].fanin, b.gates()[g].fanin) << "gate " << g;
    }
    EXPECT_EQ(a.inputNames(), b.inputNames());
    EXPECT_EQ(a.inputs(), b.inputs());
    EXPECT_EQ(a.dffs(), b.dffs());
    ASSERT_EQ(a.outputs().size(), b.outputs().size());
    for (std::size_t i = 0; i < a.outputs().size(); ++i) {
        EXPECT_EQ(a.outputs()[i].name, b.outputs()[i].name);
        EXPECT_EQ(a.outputs()[i].gate, b.outputs()[i].gate);
    }
}

/**
 * One stage is a gate-for-gate copy that times bit-identically to its
 * input, which is what lets a synthesizer time a one-stage block in
 * place instead of analyzing a copy.
 */
TEST(Pipeliner, SingleStageIsIdentityCopy)
{
    const auto lib = liberty::makeSiliconLibrary();
    const auto comb = makeMultiplier(6);
    Pipeliner pipeliner(lib);
    const auto report = pipeliner.pipeline(comb, 1);
    EXPECT_EQ(report.insertedFlops, 0u);
    expectSameNetlist(report.netlist, comb);

    const StaEngine engine(lib);
    const StaResult copy = engine.analyze(report.netlist);
    const StaResult in_place = engine.analyze(comb);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(copy.minClockPeriod),
              std::bit_cast<std::uint64_t>(in_place.minClockPeriod));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(copy.area),
              std::bit_cast<std::uint64_t>(in_place.area));
    EXPECT_EQ(copy.cellCount, in_place.cellCount);
}

/**
 * Cutting by delays taken from an analysis's arrival times builds the
 * same netlist as the self-propagating overload, at every depth.
 */
TEST(Pipeliner, PrecomputedDelaysMatchSelfPropagation)
{
    const auto lib = liberty::makeSiliconLibrary();
    const auto comb = makeMultiplier(8);
    Pipeliner pipeliner(lib);
    const StaEngine engine(lib);
    std::vector<double> arrival;
    engine.analyze(comb, &arrival);
    EXPECT_EQ(arrival, engine.arrivalTimes(comb));
    const CombDelays delays = pipeliner.combDelays(comb, arrival);
    for (int stages : {1, 2, 3, 5, 9, 17})
        expectSameNetlist(pipeliner.pipeline(comb, delays, stages).netlist,
                          pipeliner.pipeline(comb, stages).netlist);
    EXPECT_THROW(pipeliner.pipeline(comb, CombDelays{}, 2), FatalError);
}

TEST(Pipeliner, PreservesFunctionAcrossDepths)
{
    const auto lib = liberty::makeSiliconLibrary();
    const auto comb = makeMultiplier(6);
    Pipeliner pipeliner(lib);
    Rng rng(3);

    for (int stages : {2, 3, 5, 9}) {
        const auto report = pipeliner.pipeline(comb, stages);
        for (int trial = 0; trial < 8; ++trial) {
            const auto in = randomInputs(comb.inputs().size(), rng);
            const auto expect = settledOutputs(comb, in, 1);
            const auto got =
                settledOutputs(report.netlist, in, stages + 2);
            EXPECT_EQ(got, expect) << "stages=" << stages;
        }
    }
}

TEST(Pipeliner, FrequencyImprovesWithStages)
{
    const auto lib = liberty::makeSiliconLibrary();
    const auto comb = makeMultiplier(12);
    Pipeliner pipeliner(lib);
    StaEngine engine(lib);
    double prev = 0.0;
    for (int stages : {1, 2, 4, 8}) {
        const auto report = pipeliner.pipeline(comb, stages);
        const auto r = engine.analyze(report.netlist);
        EXPECT_GT(r.maxFrequency, prev) << "stages=" << stages;
        prev = r.maxFrequency;
    }
}

TEST(Pipeliner, RegisterCountGrowsWithStages)
{
    const auto lib = liberty::makeSiliconLibrary();
    const auto comb = makeMultiplier(10);
    Pipeliner pipeliner(lib);
    std::size_t prev = 0;
    for (int stages : {2, 4, 8}) {
        const auto report = pipeliner.pipeline(comb, stages);
        EXPECT_GT(report.insertedFlops, prev);
        prev = report.insertedFlops;
        EXPECT_EQ(report.netlist.dffs().size(), report.insertedFlops);
    }
}

TEST(Pipeliner, OutputsAlignedToFinalStage)
{
    // All outputs get the same latency: a pipelined constant-input
    // run must produce the comb result exactly at `stages` cycles.
    const auto lib = liberty::makeSiliconLibrary();
    const auto comb = makeMultiplier(6);
    Pipeliner pipeliner(lib);
    const int stages = 4;
    const auto report = pipeliner.pipeline(comb, stages);
    Rng rng(9);
    const auto in = randomInputs(comb.inputs().size(), rng);
    const auto expect = settledOutputs(comb, in, 1);
    // Exactly `stages` evaluations after reset: the result arrives.
    EXPECT_EQ(settledOutputs(report.netlist, in, stages), expect);
}

TEST(Pipeliner, FlopOverheadShowsInPipelinedPeriod)
{
    // The per-stage overhead of the target library is visible in the
    // achieved period: a library with grossly heavier flops cannot
    // reach the same pipelined frequency on the same block.
    const auto si = liberty::makeSiliconLibrary();
    liberty::SiliconConfig heavy_flops;
    heavy_flops.clkToQ = 2e-9;
    heavy_flops.setup = 2e-9;
    const auto other = liberty::makeSiliconLibrary(heavy_flops);

    const auto comb = makeMultiplier(10);
    const auto a = Pipeliner(si).pipeline(comb, 6);
    const auto b = Pipeliner(other).pipeline(comb, 6);
    const double pa = StaEngine(si).analyze(a.netlist).minClockPeriod;
    const double pb =
        StaEngine(other).analyze(b.netlist).minClockPeriod;
    EXPECT_GT(pb, pa + 3e-9);
}

TEST(Pipeliner, RejectsBadInputs)
{
    const auto lib = liberty::makeSiliconLibrary();
    Pipeliner pipeliner(lib);
    const auto comb = makeMultiplier(4);
    EXPECT_THROW(pipeliner.pipeline(comb, 0), FatalError);

    netlist::Netlist sequential;
    netlist::NetBuilder b(sequential);
    b.output("q", b.dff(b.input("d")));
    EXPECT_THROW(pipeliner.pipeline(sequential, 2), FatalError);
}

/** Sweep: function preserved for every stage count 1..10. */
class PipelineDepths : public ::testing::TestWithParam<int>
{
};

TEST_P(PipelineDepths, AdderStillAdds)
{
    const auto lib = liberty::makeSiliconLibrary();
    netlist::Netlist comb;
    {
        netlist::NetBuilder b(comb);
        const auto a = b.inputBus("a", 8);
        const auto y = b.inputBus("y", 8);
        b.outputBus("s", netlist::koggeStoneAdder(b, a, y).sum);
    }
    const int stages = GetParam();
    const auto report = Pipeliner(lib).pipeline(comb, stages);

    Rng rng(static_cast<std::uint64_t>(stages));
    for (int trial = 0; trial < 6; ++trial) {
        std::uint64_t x = rng.next() & 0xFF, z = rng.next() & 0xFF;
        std::vector<bool> in;
        for (int i = 0; i < 8; ++i)
            in.push_back((x >> i) & 1);
        for (int i = 0; i < 8; ++i)
            in.push_back((z >> i) & 1);
        const auto out =
            settledOutputs(report.netlist, in, stages + 2);
        std::uint64_t got = 0;
        for (std::size_t i = 0; i < out.size(); ++i)
            if (out[i])
                got |= std::uint64_t{1} << i;
        EXPECT_EQ(got, (x + z) & 0xFF) << "stages=" << stages;
    }
}

INSTANTIATE_TEST_SUITE_P(Depths, PipelineDepths,
                         ::testing::Range(1, 11));

} // namespace
} // namespace otft::sta
