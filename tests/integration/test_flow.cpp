/**
 * @file
 * Integration tests over the full paper flow (Fig. 10): device
 * measurement -> model fit -> cells -> NLDM library -> synthesis ->
 * STA -> architecture, plus the headline cross-technology claims.
 *
 * The organic library is characterized once on a reduced grid and
 * shared across the suite.
 */

#include <gtest/gtest.h>

#include "core/explorer.hpp"
#include "device/extraction.hpp"
#include "device/fitting.hpp"
#include "device/measurement.hpp"
#include "device/pentacene.hpp"
#include "liberty/characterizer.hpp"
#include "liberty/silicon.hpp"
#include "netlist/bufferize.hpp"
#include "netlist/generators.hpp"
#include "sta/pipeline.hpp"
#include "util/logging.hpp"
#include "util/result_cache.hpp"
#include "util/stats_registry.hpp"

namespace otft {
namespace {

class FullFlow : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        setQuiet(true);
        liberty::CharacterizerConfig config;
        config.slewAxis = {4e-6, 64e-6};
        config.loadMultipliers = {0.5, 6.0};
        organic = new liberty::CellLibrary(
            liberty::makeOrganicLibrary(config));
        silicon = new liberty::CellLibrary(
            liberty::makeSiliconLibrary());
    }

    static void
    TearDownTestSuite()
    {
        delete organic;
        delete silicon;
        organic = nullptr;
        silicon = nullptr;
    }

    static liberty::CellLibrary *organic;
    static liberty::CellLibrary *silicon;
};

liberty::CellLibrary *FullFlow::organic = nullptr;
liberty::CellLibrary *FullFlow::silicon = nullptr;

TEST_F(FullFlow, DeviceToLibraryDelayChain)
{
    // The library's inverter delay must be consistent with the
    // device-level current drive: C * V / I within an order of
    // magnitude.
    const auto device = device::makePentaceneGolden();
    const auto &inv = organic->cell("inv");
    const double measured = inv.arc(0).worstDelay(
        organic->defaultSlew(), inv.inputCap);
    EXPECT_GT(measured, 1e-6);
    EXPECT_LT(measured, 1e-3);
    (void)device;
}

TEST_F(FullFlow, SixOrdersOfMagnitudeSpeedGap)
{
    const auto &si_inv = silicon->cell("inv");
    const auto &org_inv = organic->cell("inv");
    const double si = si_inv.arc(0).worstDelay(silicon->defaultSlew(),
                                               4.0 * si_inv.inputCap);
    const double org = org_inv.arc(0).worstDelay(
        organic->defaultSlew(), 4.0 * org_inv.inputCap);
    const double ratio = org / si;
    EXPECT_GT(ratio, 1e5);
    EXPECT_LT(ratio, 1e8);
}

TEST_F(FullFlow, AluPipelineContrast)
{
    // Paper Fig. 12 headline in one assertion: between 8 and 22
    // stages the organic ALU keeps gaining much more frequency than
    // the silicon ALU.
    netlist::Netlist alu;
    {
        netlist::NetBuilder b(alu);
        const auto x = b.inputBus("a", 16);
        const auto y = b.inputBus("y", 16);
        b.outputBus("p", netlist::arrayMultiplier(b, x, y));
    }
    const auto buffered = netlist::bufferize(alu, 6);

    auto gain = [&](const liberty::CellLibrary &lib) {
        sta::Pipeliner pipeliner(lib);
        sta::StaEngine engine(lib);
        const auto f8 =
            engine.analyze(pipeliner.pipeline(buffered, 8).netlist)
                .maxFrequency;
        const auto f22 =
            engine.analyze(pipeliner.pipeline(buffered, 22).netlist)
                .maxFrequency;
        return f22 / f8;
    };
    EXPECT_GT(gain(*organic), 1.15 * gain(*silicon));
}

TEST_F(FullFlow, CoreDepthOptimumOrdering)
{
    // Paper Fig. 11 headline: the organic optimum is at least as deep
    // as the silicon optimum, and organic frequency scales farther.
    core::ExplorerConfig config;
    config.instructions = 12000;
    core::ArchExplorer si_explorer(*silicon, config);
    core::ArchExplorer org_explorer(*organic, config);

    const auto si_sweep = si_explorer.depthSweep(14);
    const auto org_sweep = org_explorer.depthSweep(14);

    EXPECT_GE(core::optimalDepth(org_sweep).stages,
              core::optimalDepth(si_sweep).stages);

    const double si_gain = si_sweep.points.back().timing.frequency /
                           si_sweep.points.front().timing.frequency;
    const double org_gain =
        org_sweep.points.back().timing.frequency /
        org_sweep.points.front().timing.frequency;
    EXPECT_GT(org_gain, si_gain);
}

TEST_F(FullFlow, WidthSensitivityContrast)
{
    // Paper Fig. 13 headline: performance falls off much faster with
    // back-end width on silicon than on organic.
    core::ExplorerConfig config;
    config.instructions = 8000;
    auto penalty = [&](const liberty::CellLibrary &lib) {
        core::CoreSynthesizer synth(lib, config.sta);
        auto narrow = arch::baselineConfig();
        narrow.fetchWidth = 2;
        narrow.aluPipes = 1;
        auto wide = narrow;
        wide.aluPipes = 5;
        const double fn = synth.synthesize(narrow).frequency;
        const double fw = synth.synthesize(wide).frequency;
        return fn / fw; // > 1: widening costs cycle time
    };
    const double si_penalty = penalty(*silicon);
    const double org_penalty = penalty(*organic);
    EXPECT_GT(si_penalty, org_penalty);
}

TEST_F(FullFlow, OrganicBaselineNearPaperFrequency)
{
    core::CoreSynthesizer synth(*organic);
    const auto timing = synth.synthesize(arch::baselineConfig());
    // Paper: ~200 Hz for the 9-stage organic baseline.
    EXPECT_GT(timing.frequency, 50.0);
    EXPECT_LT(timing.frequency, 800.0);
}

TEST_F(FullFlow, SiliconBaselineNearPaperFrequency)
{
    core::CoreSynthesizer synth(*silicon);
    const auto timing = synth.synthesize(arch::baselineConfig());
    // Paper: ~800 MHz; accept the same order of magnitude.
    EXPECT_GT(timing.frequency, 1e8);
    EXPECT_LT(timing.frequency, 3e9);
}

TEST_F(FullFlow, TelemetryCoversEveryLayer)
{
    // A mini end-to-end run must leave nonzero counters from the
    // circuit solver up through the architecture explorer.
    stats::Registry &reg = stats::Registry::instance();
    reg.reset();
    // Earlier tests may have cached this point's timing or IPC tier;
    // start cold so every layer does its work.
    cache::ResultCache::instance().clear();

    // STA + explorer + arch: evaluate one design point on the silicon
    // library (fast) with a small instruction budget.
    core::ExplorerConfig config;
    config.instructions = 2000;
    core::ArchExplorer explorer(*silicon, config);
    (void)explorer.evaluate(arch::baselineConfig());

    // Circuit + liberty: the explorer path runs no SPICE, so
    // characterize the organic library once more on a minimal
    // (2x2, the NLDM floor) grid.
    liberty::CharacterizerConfig mini;
    mini.slewAxis = {4e-6, 64e-6};
    mini.loadMultipliers = {0.5, 6.0};
    (void)liberty::makeOrganicLibrary(mini);

    EXPECT_GT(stats::counter("circuit.newton.iterations").value(), 0u);
    EXPECT_GT(stats::counter("circuit.newton.solves").value(), 0u);
    EXPECT_GT(stats::counter("liberty.arcs.characterized").value(), 0u);
    EXPECT_GT(stats::counter("sta.arcs.evaluated").value(), 0u);
    EXPECT_GT(stats::counter("sta.levelization.passes").value(), 0u);
    EXPECT_GT(stats::counter("explorer.points.evaluated").value(), 0u);
    EXPECT_GT(stats::counter("arch.instructions.simulated").value(),
              0u);
    EXPECT_GT(stats::counter("workload.instructions.generated").value(),
              0u);
}

TEST_F(FullFlow, WireRemovalMovesSiliconNotOrganic)
{
    // Paper Fig. 15: organic is insensitive to the wire model;
    // silicon is transformed by it.
    sta::StaConfig no_wire;
    no_wire.wireEnabled = false;

    core::CoreSynthesizer si_with(*silicon);
    core::CoreSynthesizer si_without(*silicon, no_wire);
    core::CoreSynthesizer org_with(*organic);
    core::CoreSynthesizer org_without(*organic, no_wire);

    const auto cfg = arch::baselineConfig();
    const double si_boost = si_without.synthesize(cfg).frequency /
                            si_with.synthesize(cfg).frequency;
    const double org_boost = org_without.synthesize(cfg).frequency /
                             org_with.synthesize(cfg).frequency;
    EXPECT_GT(si_boost, 1.3);
    EXPECT_LT(org_boost, 1.1);
}

} // namespace
} // namespace otft
