/** @file Unit tests for the pipeline region block generators. */

#include <vector>

#include <gtest/gtest.h>

#include "core/blocks.hpp"
#include "netlist/bufferize.hpp"

namespace otft::core {
namespace {

arch::CoreConfig
config(int fe, int alu)
{
    arch::CoreConfig c;
    c.fetchWidth = fe;
    c.aluPipes = alu;
    return c;
}

TEST(Blocks, AllRegionsBuildNonTrivialNetlists)
{
    const auto cfg = config(2, 2);
    for (int r = 0; r < arch::numRegions; ++r) {
        const auto nl =
            buildRegionBlock(static_cast<arch::Region>(r), cfg);
        EXPECT_GT(nl.numGates(), 50u)
            << arch::toString(static_cast<arch::Region>(r));
        EXPECT_FALSE(nl.outputs().empty());
        EXPECT_TRUE(nl.dffs().empty()) << "regions are combinational";
    }
}

TEST(Blocks, FrontEndBlocksScaleWithFetchWidth)
{
    for (arch::Region r : {arch::Region::Decode, arch::Region::Rename,
                           arch::Region::Dispatch}) {
        const auto narrow = buildRegionBlock(r, config(1, 1));
        const auto wide = buildRegionBlock(r, config(6, 1));
        EXPECT_GT(wide.numGates(), 1.5 * narrow.numGates())
            << arch::toString(r);
    }
}

TEST(Blocks, BackEndBlocksScaleWithAluPipes)
{
    for (arch::Region r : {arch::Region::Issue, arch::Region::RegRead,
                           arch::Region::Execute}) {
        const auto narrow = buildRegionBlock(r, config(2, 1));
        const auto wide = buildRegionBlock(r, config(2, 5));
        EXPECT_GT(wide.numGates(), 1.4 * narrow.numGates())
            << arch::toString(r);
    }
}

/** Gate-for-gate equality: kinds, fanins, ports and input names. */
bool
sameNetlist(const netlist::Netlist &a, const netlist::Netlist &b)
{
    if (a.numGates() != b.numGates() ||
        a.inputNames() != b.inputNames() ||
        a.outputs().size() != b.outputs().size())
        return false;
    for (std::size_t g = 0; g < a.numGates(); ++g)
        if (a.gates()[g].kind != b.gates()[g].kind ||
            a.gates()[g].fanin != b.gates()[g].fanin)
            return false;
    for (std::size_t o = 0; o < a.outputs().size(); ++o)
        if (a.outputs()[o].name != b.outputs()[o].name ||
            a.outputs()[o].gate != b.outputs()[o].gate)
            return false;
    return true;
}

TEST(Blocks, EqualBlockKeysBuildIdenticalNetlists)
{
    // Variants of one configuration, each changing fields that some
    // regions read and others ignore.
    std::vector<arch::CoreConfig> configs(8, config(2, 2));
    configs[1].lsqSize = 16;
    configs[1].predictorBits = 10;
    configs[1].stages[0] = 3;
    configs[1].mulLatency = 5;
    configs[2].memPipes = 2; // same back-end width, one ALU pipe fewer
    configs[2].aluPipes = 1;
    configs[3].robSize = 256;
    configs[4].iqSize = 16;
    configs[5].fetchWidth = 3;
    configs[6].branchPipes = 2; // wider back end, same ALU pipes
    configs[7].fetchWidth = 1;
    configs[7].robSize = 64;
    configs[7].aluPipes = 3;

    for (int r = 0; r < arch::numRegions; ++r) {
        const auto region = static_cast<arch::Region>(r);
        int equal_pairs = 0;
        for (std::size_t i = 0; i < configs.size(); ++i) {
            for (std::size_t j = i + 1; j < configs.size(); ++j) {
                if (regionBlockKey(region, configs[i]) !=
                    regionBlockKey(region, configs[j]))
                    continue;
                ++equal_pairs;
                EXPECT_TRUE(
                    sameNetlist(buildRegionBlock(region, configs[i]),
                                buildRegionBlock(region, configs[j])))
                    << arch::toString(region) << " configs " << i
                    << " and " << j;
                // The wakeup loop flooring Issue shares its key.
                if (region == arch::Region::Issue) {
                    EXPECT_TRUE(
                        sameNetlist(buildWakeupLoop(configs[i]),
                                    buildWakeupLoop(configs[j])));
                }
            }
        }
        EXPECT_GT(equal_pairs, 0) << arch::toString(region);
    }
}

// The shared block table cannot be reset, so these tests hold whether
// an earlier test of the process filled it or not.

TEST(Blocks, SharedBlocksMatchFreshBuilds)
{
    for (const arch::CoreConfig &cfg : {config(2, 2), config(4, 3)}) {
        for (int r = 0; r < arch::numRegions; ++r) {
            const auto region = static_cast<arch::Region>(r);
            EXPECT_TRUE(sameNetlist(
                regionNetlist(region, cfg),
                netlist::bufferize(buildRegionBlock(region, cfg),
                                   blockMaxFanout)))
                << arch::toString(region) << " fe " << cfg.fetchWidth;
        }
        EXPECT_TRUE(sameNetlist(
            wakeupLoopNetlist(cfg),
            netlist::bufferize(buildWakeupLoop(cfg), blockMaxFanout)));
    }
    EXPECT_TRUE(sameNetlist(
        complexAluNetlist(),
        netlist::bufferize(buildComplexAlu(), blockMaxFanout)));
}

TEST(Blocks, EqualSharedKeysReturnOneNetlist)
{
    // Only fields no builder reads differ.
    const arch::CoreConfig a = config(3, 2);
    arch::CoreConfig b = a;
    b.lsqSize = 16;
    b.predictorBits = 10;
    b.stages[0] = 3;
    b.mulLatency = 5;
    arch::CoreConfig bigger_rob = a;
    bigger_rob.robSize = 256;

    for (int r = 0; r < arch::numRegions; ++r) {
        const auto region = static_cast<arch::Region>(r);
        EXPECT_EQ(&regionNetlist(region, a), &regionNetlist(region, b))
            << arch::toString(region);
    }
    EXPECT_EQ(&wakeupLoopNetlist(a), &wakeupLoopNetlist(b));
    EXPECT_EQ(&complexAluNetlist(), &complexAluNetlist());

    // The key holds the block kind: the wakeup loop shares the Issue
    // block's key fields but is its own netlist.
    EXPECT_NE(&wakeupLoopNetlist(a),
              &regionNetlist(arch::Region::Issue, a));
    // A field a builder reads keys a different netlist.
    EXPECT_NE(&regionNetlist(arch::Region::Retire, a),
              &regionNetlist(arch::Region::Retire, bigger_rob));
    EXPECT_EQ(&regionNetlist(arch::Region::Fetch, a),
              &regionNetlist(arch::Region::Fetch, bigger_rob));
}

TEST(Blocks, ComplexAluContainsMultiplierAndDivider)
{
    const auto nl = buildComplexAlu(2);
    EXPECT_GT(nl.numGates(), 10000u);
    // 32-bit product + 2 quotient bits + 32 remainder bits.
    EXPECT_EQ(nl.outputs().size(), 64u + 2u + 32u);
}

TEST(Blocks, WakeupLoopIsCompactAndCombinational)
{
    const auto nl = buildWakeupLoop(config(2, 2));
    EXPECT_TRUE(nl.dffs().empty());
    EXPECT_LT(nl.depth(), 40);
    EXPECT_GT(nl.numGates(), 100u);
}

TEST(Blocks, StorageBitsScaleWithStructures)
{
    auto base = config(1, 1);
    auto big = base;
    big.robSize = 256;
    EXPECT_GT(storageBits(big), storageBits(base));

    auto wide = base;
    wide.fetchWidth = 6;
    EXPECT_GT(storageBits(wide), storageBits(base));
}

/** Sweep: issue block depth is width-stable (partitioned select). */
class IssueDepth : public ::testing::TestWithParam<int>
{
};

TEST_P(IssueDepth, DepthNearlyConstantInPipes)
{
    const auto one = buildRegionBlock(arch::Region::Issue,
                                      config(2, 1));
    const auto many = buildRegionBlock(arch::Region::Issue,
                                       config(2, GetParam()));
    EXPECT_LE(many.depth(), one.depth() + 8);
}

INSTANTIATE_TEST_SUITE_P(Pipes, IssueDepth,
                         ::testing::Values(2, 3, 4, 5));

} // namespace
} // namespace otft::core
