/** @file Tests for core synthesis (timing/area per configuration). */

#include <string>

#include <gtest/gtest.h>

#include "core/synthesizer.hpp"
#include "liberty/silicon.hpp"
#include "netlist/bufferize.hpp"
#include "sta/pipeline.hpp"
#include "sta/sta.hpp"
#include "util/stats_registry.hpp"

namespace otft::core {
namespace {

class Synthesis : public ::testing::Test
{
  protected:
    Synthesis() : library(liberty::makeSiliconLibrary()) {}

    liberty::CellLibrary library;
};

TEST_F(Synthesis, BaselineTimingComplete)
{
    CoreSynthesizer synth(library);
    const auto timing = synth.synthesize(arch::baselineConfig());
    EXPECT_GT(timing.frequency, 1e7);
    EXPECT_LT(timing.frequency, 5e9);
    EXPECT_GT(timing.area, 0.0);
    EXPECT_EQ(timing.regions.size(),
              static_cast<std::size_t>(arch::numRegions));
    EXPECT_GE(timing.complexAluStages, 1);
    // Core period is the max over regions (or the wakeup loop floor
    // on the issue region).
    for (const auto &rt : timing.regions)
        EXPECT_LE(rt.clockPeriod, timing.clockPeriod + 1e-15);
}

TEST_F(Synthesis, DeepeningCutsTheCriticalRegion)
{
    CoreSynthesizer synth(library);
    const auto base = arch::baselineConfig();
    const auto base_timing = synth.synthesize(base);
    const auto deeper = synth.deepen(base);
    EXPECT_EQ(deeper.totalStages(), base.totalStages() + 1);
    EXPECT_EQ(deeper.stagesIn(base_timing.critical),
              base.stagesIn(base_timing.critical) + 1);
}

TEST_F(Synthesis, DeepeningImprovesFrequencyInitially)
{
    CoreSynthesizer synth(library);
    auto config = arch::baselineConfig();
    const double f9 = synth.synthesize(config).frequency;
    config = synth.deepen(config);
    config = synth.deepen(config);
    const double f11 = synth.synthesize(config).frequency;
    EXPECT_GT(f11, f9);
}

TEST_F(Synthesis, WidthGrowsAreaMonotonically)
{
    CoreSynthesizer synth(library);
    double prev = 0.0;
    for (int be = 3; be <= 7; ++be) {
        auto config = arch::baselineConfig();
        config.fetchWidth = 2;
        config.aluPipes = be - 2;
        const auto timing = synth.synthesize(config);
        EXPECT_GT(timing.area, prev) << "be=" << be;
        prev = timing.area;
    }
}

TEST_F(Synthesis, ComplexAluMeetsCoreClock)
{
    CoreSynthesizer synth(library);
    const auto timing = synth.synthesize(arch::baselineConfig());
    // The stallable unit is pipelined until it fits under the clock,
    // so with a sane stage count the flag must be in range.
    EXPECT_GE(timing.complexAluStages, 1);
    EXPECT_LE(timing.complexAluStages, 48);
}

TEST_F(Synthesis, CachingIsConsistent)
{
    CoreSynthesizer synth(library);
    const auto a = synth.synthesize(arch::baselineConfig());
    const auto b = synth.synthesize(arch::baselineConfig());
    EXPECT_DOUBLE_EQ(a.clockPeriod, b.clockPeriod);
    EXPECT_DOUBLE_EQ(a.area, b.area);
}

/** Every CoreTiming and RegionTiming field compared exactly. */
void
expectSameTiming(const CoreTiming &a, const CoreTiming &b)
{
    EXPECT_EQ(a.clockPeriod, b.clockPeriod);
    EXPECT_EQ(a.frequency, b.frequency);
    EXPECT_EQ(a.area, b.area);
    EXPECT_EQ(a.critical, b.critical);
    EXPECT_EQ(a.complexAluStages, b.complexAluStages);
    ASSERT_EQ(a.regions.size(), b.regions.size());
    for (std::size_t i = 0; i < a.regions.size(); ++i) {
        const std::string region = arch::toString(a.regions[i].region);
        EXPECT_EQ(a.regions[i].region, b.regions[i].region) << region;
        EXPECT_EQ(a.regions[i].stages, b.regions[i].stages) << region;
        EXPECT_EQ(a.regions[i].clockPeriod, b.regions[i].clockPeriod)
            << region;
        EXPECT_EQ(a.regions[i].area, b.regions[i].area) << region;
        EXPECT_EQ(a.regions[i].cells, b.regions[i].cells) << region;
    }
}

TEST_F(Synthesis, ReusedSynthesizerMatchesFreshOne)
{
    // The memo tables must key on every field the block builders
    // read: after the baseline, a larger ROB and IQ change the
    // rename, dispatch, issue, execute and retire blocks.
    arch::CoreConfig big = arch::baselineConfig();
    big.robSize = 256;
    big.iqSize = 64;

    CoreSynthesizer reused(library);
    reused.synthesize(arch::baselineConfig());
    CoreSynthesizer fresh(library);
    expectSameTiming(reused.synthesize(big), fresh.synthesize(big));
}

TEST_F(Synthesis, WakeupFloorBindsAtElevenStages)
{
    // fig11's 11-stage silicon point, two cuts past the baseline: the
    // wakeup-select loop, not the Issue block's own stage logic, sets
    // the Issue region's period.
    CoreSynthesizer synth(library);
    arch::CoreConfig config = arch::baselineConfig();
    config = synth.deepen(synth.deepen(config));
    const CoreTiming timing = synth.synthesize(config);

    const netlist::Netlist issue = netlist::bufferize(
        buildRegionBlock(arch::Region::Issue, config), 6);
    const double block_period =
        sta::StaEngine(library)
            .analyze(sta::Pipeliner(library)
                         .pipeline(issue,
                                   config.stagesIn(arch::Region::Issue))
                         .netlist)
            .minClockPeriod;

    int issue_regions = 0;
    for (const RegionTiming &rt : timing.regions) {
        if (rt.region != arch::Region::Issue)
            continue;
        ++issue_regions;
        EXPECT_GT(rt.clockPeriod, block_period);
    }
    EXPECT_EQ(issue_regions, 1);
}

TEST_F(Synthesis, SecondSynthesizerReusesTheSharedBlocks)
{
    // Every region one stage deep, so no region is pipelined: the
    // only gates a synthesis can create besides block builds are the
    // pipelined copies of the complex ALU.
    arch::CoreConfig config = arch::baselineConfig();
    config.fetchWidth = 3;
    config.aluPipes = 2;
    for (int &stages : config.stages)
        stages = 1;
    sta::StaConfig no_wire;
    no_wire.wireEnabled = false;

    CoreSynthesizer wired(library);
    wired.synthesize(config);

    // Time every ALU depth synthesize() can try on `unwired` first.
    CoreSynthesizer unwired(library, no_wire);
    const int alu_stages = CoreSynthesizer(library, no_wire)
                               .synthesize(config)
                               .complexAluStages;
    for (int stages = 1; stages <= alu_stages; ++stages)
        unwired.complexAluTiming(stages);

    const stats::Counter &created =
        stats::counter("netlist.gates.created");
    const std::uint64_t before = created.value();
    const CoreTiming timing = unwired.synthesize(config);
    EXPECT_EQ(created.value(), before)
        << "a block was built again for a second synthesizer";

    // The shared blocks time exactly as fresh builds do.
    const sta::StaEngine engine(library, no_wire);
    for (const RegionTiming &rt : timing.regions) {
        const std::string region = arch::toString(rt.region);
        const sta::StaResult fresh = engine.analyze(netlist::bufferize(
            buildRegionBlock(rt.region, config), blockMaxFanout));
        EXPECT_EQ(rt.area, fresh.area) << region;
        EXPECT_EQ(rt.cells, fresh.cellCount) << region;
        // The wakeup-loop floor may raise the Issue period.
        if (rt.region == arch::Region::Issue)
            EXPECT_GE(rt.clockPeriod, fresh.minClockPeriod) << region;
        else
            EXPECT_EQ(rt.clockPeriod, fresh.minClockPeriod) << region;
    }
    const sta::StaResult alu = engine.analyze(
        netlist::bufferize(buildComplexAlu(), blockMaxFanout));
    EXPECT_EQ(unwired.complexAluTiming(1),
              std::make_pair(alu.minClockPeriod, alu.area));
}

TEST_F(Synthesis, WireOffRaisesFrequency)
{
    sta::StaConfig no_wire;
    no_wire.wireEnabled = false;
    CoreSynthesizer with(library);
    CoreSynthesizer without(library, no_wire);
    const auto fw = with.synthesize(arch::baselineConfig()).frequency;
    const auto fn =
        without.synthesize(arch::baselineConfig()).frequency;
    EXPECT_GT(fn, 1.3 * fw);
}

} // namespace
} // namespace otft::core
