/** @file Tests for the architecture exploration drivers. */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "core/explorer.hpp"
#include "liberty/characterizer.hpp"
#include "liberty/silicon.hpp"
#include "util/logging.hpp"
#include "util/result_cache.hpp"

namespace otft::core {
namespace {

ExplorerConfig
quickConfig()
{
    ExplorerConfig config;
    config.instructions = 8000;
    return config;
}

TEST(Explorer, EvaluateProducesFullDesignPoint)
{
    const auto lib = liberty::makeSiliconLibrary();
    ArchExplorer explorer(lib, quickConfig());
    const auto point = explorer.evaluate(arch::baselineConfig());
    EXPECT_EQ(point.ipc.size(), 7u);
    EXPECT_GT(point.meanIpc, 0.0);
    EXPECT_GT(point.performance, 0.0);
    EXPECT_NEAR(point.performance,
                point.meanIpc * point.timing.frequency,
                point.performance * 1e-9);
}

TEST(Explorer, DepthSweepCoversRequestedStages)
{
    const auto lib = liberty::makeSiliconLibrary();
    ArchExplorer explorer(lib, quickConfig());
    const auto sweep = explorer.depthSweep(12);
    ASSERT_EQ(sweep.points.size(), 4u); // 9, 10, 11, 12
    for (std::size_t i = 0; i < sweep.points.size(); ++i)
        EXPECT_EQ(sweep.points[i].config.totalStages(),
                  9 + static_cast<int>(i));
    EXPECT_EQ(sweep.workloadNames.size(), 7u);
}

TEST(Explorer, DepthSweepIpcDeclines)
{
    const auto lib = liberty::makeSiliconLibrary();
    ArchExplorer explorer(lib, quickConfig());
    const auto sweep = explorer.depthSweep(13);
    EXPECT_LT(sweep.points.back().meanIpc,
              sweep.points.front().meanIpc);
}

TEST(Explorer, WidthSweepShape)
{
    const auto lib = liberty::makeSiliconLibrary();
    ArchExplorer explorer(lib, quickConfig());
    const auto sweep = explorer.widthSweep(1, 2, 3, 4);
    ASSERT_EQ(sweep.points.size(), 2u);    // be 3..4
    ASSERT_EQ(sweep.points[0].size(), 2u); // fe 1..2
    EXPECT_EQ(sweep.points[0][1].config.fetchWidth, 2);
    EXPECT_EQ(sweep.points[1][0].config.backendWidth(), 4);
}

/**
 * On every grid shape up to 7x7 the start order reaches every slot
 * once, and each run of min(n_fe, n_be) points from a multiple of it
 * repeats no fetch width and no back-end width.
 */
TEST(Explorer, WidthSweepSlotOrder)
{
    for (std::size_t n_fe = 1; n_fe <= 7; ++n_fe) {
        for (std::size_t n_be = 1; n_be <= 7; ++n_be) {
            const std::size_t n = n_fe * n_be;
            const std::size_t run = std::min(n_fe, n_be);
            std::vector<int> hits(n, 0);
            std::vector<std::size_t> fe_run(n_fe, n), be_run(n_be, n);
            for (std::size_t k = 0; k < n; ++k) {
                const std::size_t slot = widthSweepSlot(k, n_fe, n_be);
                ASSERT_LT(slot, n) << n_fe << "x" << n_be;
                ++hits[slot];
                EXPECT_NE(fe_run[slot % n_fe], k / run)
                    << n_fe << "x" << n_be << " point " << k;
                EXPECT_NE(be_run[slot / n_fe], k / run)
                    << n_fe << "x" << n_be << " point " << k;
                fe_run[slot % n_fe] = k / run;
                be_run[slot / n_fe] = k / run;
            }
            for (std::size_t slot = 0; slot < n; ++slot)
                EXPECT_EQ(hits[slot], 1)
                    << n_fe << "x" << n_be << " slot " << slot;
        }
    }
}

TEST(Explorer, AluDepthSweepMonotoneFrequency)
{
    const auto lib = liberty::makeSiliconLibrary();
    ArchExplorer explorer(lib, quickConfig());
    const auto points = explorer.aluDepthSweep({1, 4, 8});
    ASSERT_EQ(points.size(), 3u);
    EXPECT_GT(points[1].frequency, points[0].frequency);
    EXPECT_GT(points[2].frequency, points[1].frequency);
    EXPECT_GT(points[2].area, points[0].area);
}

TEST(Explorer, IpcIndependentOfLibrary)
{
    // The paper's setup: one AnyCore simulation serves both processes.
    const auto lib = liberty::makeSiliconLibrary();
    liberty::SiliconConfig other_cfg;
    other_cfg.tau = 10e-12;
    const auto other = liberty::makeSiliconLibrary(other_cfg);

    ArchExplorer a(lib, quickConfig());
    ArchExplorer b(other, quickConfig());
    const auto pa = a.evaluate(arch::baselineConfig());
    const auto pb = b.evaluate(arch::baselineConfig());
    for (std::size_t i = 0; i < pa.ipc.size(); ++i)
        EXPECT_DOUBLE_EQ(pa.ipc[i], pb.ipc[i]);
    EXPECT_NE(pa.timing.frequency, pb.timing.frequency);
}

/** One FNV-1a step over a 64-bit word. */
std::uint64_t
fnv1a(std::uint64_t hash, std::uint64_t word)
{
    return (hash ^ word) * 1099511628211ull;
}

/** FNV-1a over every CoreTiming and RegionTiming field. */
std::uint64_t
hashTiming(std::uint64_t hash, const CoreTiming &t)
{
    hash = fnv1a(hash, std::bit_cast<std::uint64_t>(t.clockPeriod));
    hash = fnv1a(hash, std::bit_cast<std::uint64_t>(t.frequency));
    hash = fnv1a(hash, std::bit_cast<std::uint64_t>(t.area));
    hash = fnv1a(hash, static_cast<std::uint64_t>(t.critical));
    hash = fnv1a(hash, static_cast<std::uint64_t>(t.complexAluStages));
    for (const RegionTiming &r : t.regions) {
        hash = fnv1a(hash, static_cast<std::uint64_t>(r.region));
        hash = fnv1a(hash, static_cast<std::uint64_t>(r.stages));
        hash = fnv1a(hash, std::bit_cast<std::uint64_t>(r.clockPeriod));
        hash = fnv1a(hash, std::bit_cast<std::uint64_t>(r.area));
        hash = fnv1a(hash, static_cast<std::uint64_t>(r.cells));
    }
    return hash;
}

/**
 * Golden timing of the silicon fe 1-3 x be 3-5 width sweep with the
 * wire model on and off, every CoreTiming field hashed in (back-end,
 * front-end) order. The hash was captured with one synthesizer per
 * design point, so sharing synthesis work across points must not move
 * a single bit.
 */
TEST(Explorer, WidthSweepTimingHashIsBitExact)
{
    cache::EnabledOverride off(false);
    const auto lib = liberty::makeSiliconLibrary();
    std::uint64_t hash = 1469598103934665603ull; // FNV offset basis
    for (bool wire : {true, false}) {
        ExplorerConfig config;
        config.instructions = 1000;
        config.sta.wireEnabled = wire;
        ArchExplorer explorer(lib, config);
        const auto sweep = explorer.widthSweep(1, 3, 3, 5);
        for (const auto &row : sweep.points)
            for (const auto &point : row)
                hash = hashTiming(hash, point.timing);
    }
    EXPECT_EQ(hash, 0x26d8f7f6e275182eull);
}

/**
 * The organic library on the integration suite's reduced
 * characterization grid, built once per process.
 */
const liberty::CellLibrary &
organicLibrary()
{
    static const liberty::CellLibrary lib = [] {
        liberty::CharacterizerConfig config;
        config.slewAxis = {4e-6, 64e-6};
        config.loadMultipliers = {0.5, 6.0};
        return liberty::makeOrganicLibrary(config);
    }();
    return lib;
}

/**
 * Golden timing of depthSweep(15) on silicon and organic, wire model
 * on and off: every CoreTiming field of every point, in sweep order.
 * Captured before region timing shared its comb propagation and
 * one-stage analysis across stage counts. The organic half was
 * re-pinned when the Newton Jacobian took the device models'
 * closed-form derivatives (known modeling delta 6), when adaptive
 * transient steps started Newton from a linear predictor (known
 * modeling delta 7) and when the level-61 saturation knee took a
 * fixed exponent of 4 (known modeling delta 8).
 */
TEST(Explorer, DepthSweepTimingHashIsBitExact)
{
    cache::EnabledOverride off(false);
    const auto silicon = liberty::makeSiliconLibrary();
    std::uint64_t hash = 1469598103934665603ull;
    for (const liberty::CellLibrary *lib : {&silicon, &organicLibrary()}) {
        for (bool wire : {true, false}) {
            ExplorerConfig config;
            config.instructions = 1000;
            config.sta.wireEnabled = wire;
            ArchExplorer explorer(*lib, config);
            for (const auto &point : explorer.depthSweep(15).points)
                hash = hashTiming(hash, point.timing);
        }
    }
    EXPECT_EQ(hash, 0xdfb728c5e9fb98e1ull);
}

/**
 * Golden frequency and area of the complex-ALU depth sweep on silicon
 * and organic, wire model on and off, captured and re-pinned the same
 * way.
 */
TEST(Explorer, AluDepthSweepHashIsBitExact)
{
    cache::EnabledOverride off(false);
    const auto silicon = liberty::makeSiliconLibrary();
    std::uint64_t hash = 1469598103934665603ull;
    for (const liberty::CellLibrary *lib : {&silicon, &organicLibrary()}) {
        for (bool wire : {true, false}) {
            ExplorerConfig config;
            config.sta.wireEnabled = wire;
            ArchExplorer explorer(*lib, config);
            for (const AluPoint &p : explorer.aluDepthSweep(
                     {1, 2, 3, 4, 6, 8, 12, 16, 22, 30})) {
                hash = fnv1a(hash, static_cast<std::uint64_t>(p.stages));
                hash = fnv1a(hash, std::bit_cast<std::uint64_t>(p.frequency));
                hash = fnv1a(hash, std::bit_cast<std::uint64_t>(p.area));
            }
        }
    }
    EXPECT_EQ(hash, 0x4c5066aca409a4eaull);
}

/**
 * A design point `extra` stages deeper than the 9-stage baseline with
 * the given performance and frequency, built by hand (no synthesis).
 */
DesignPoint
handPoint(int extra, double performance, double frequency = 1.0)
{
    DesignPoint point;
    point.config = arch::baselineConfig();
    point.config.stagesIn(arch::Region::Issue) += extra;
    point.performance = performance;
    point.timing.frequency = frequency;
    return point;
}

/** A depth sweep from 9 stages on, one point per performance. */
DepthSweep
handDepthSweep(const std::vector<double> &performance)
{
    DepthSweep sweep;
    for (std::size_t i = 0; i < performance.size(); ++i)
        sweep.points.push_back(
            handPoint(static_cast<int>(i), performance[i]));
    return sweep;
}

TEST(Headline, OptimalDepthIsTheFirstStrictMaximum)
{
    const DepthOptimum best =
        optimalDepth(handDepthSweep({1.0, 1.5, 2.5, 2.0, 1.8}));
    EXPECT_EQ(best.stages, 11);
    EXPECT_EQ(best.gain, 2.5);

    // A tie keeps the shallower depth; a strictly larger later point
    // takes over.
    EXPECT_EQ(optimalDepth(handDepthSweep({1.0, 2.0, 2.0, 1.0})).stages,
              10);
    EXPECT_EQ(optimalDepth(handDepthSweep(
                               {1.0, 2.0, std::nextafter(2.0, 3.0)}))
                  .stages,
              11);
    // The baseline itself can be the optimum.
    EXPECT_EQ(optimalDepth(handDepthSweep({3.0, 2.0})).stages, 9);
}

TEST(Headline, FirstMaximumRejectsAnEmptyInput)
{
    EXPECT_EQ(firstMaximum({4.0, 7.0, 7.0, 1.0}), 1u);
    EXPECT_THROW(firstMaximum({}), FatalError);
    EXPECT_THROW(optimalDepth(DepthSweep{}), FatalError);
}

TEST(Headline, FrequencyGainAtStages)
{
    DepthSweep sweep;
    for (int extra = 0; extra <= 6; ++extra)
        sweep.points.push_back(handPoint(extra, 1.0, 100.0 + 20.0 * extra));
    const std::optional<double> at14 = frequencyGainAt(sweep, 14);
    ASSERT_TRUE(at14.has_value());
    EXPECT_EQ(*at14, 200.0 / 100.0);

    // A sweep that stops short of 14 stages has no 14-stage ratio.
    sweep.points.resize(4); // 9..12 stages
    EXPECT_FALSE(frequencyGainAt(sweep, 14).has_value());
    EXPECT_FALSE(frequencyGainAt(DepthSweep{}, 14).has_value());
}

/** A 2 x 2 width sweep over fe 1..2, be 3..4, perf[be][fe]. */
WidthSweep
handWidthSweep(const std::vector<std::vector<double>> &perf)
{
    WidthSweep sweep;
    sweep.feMin = 1;
    sweep.feMax = 2;
    sweep.beMin = 3;
    sweep.beMax = 4;
    for (const auto &row : perf) {
        sweep.points.emplace_back();
        for (double p : row)
            sweep.points.back().push_back(handPoint(0, p));
    }
    return sweep;
}

TEST(Headline, OptimalWidthTakesTheLastNearTie)
{
    // (be 3, fe 2) is the maximum; (be 4, fe 1) is within 1e-4 of it
    // and later in (be, fe) order, so it wins; (be 4, fe 2) is 2e-4
    // off and does not qualify.
    const WidthSweep sweep =
        handWidthSweep({{1.0, 2.0}, {2.0 * (1.0 - 5e-5), 2.0 * (1.0 - 2e-4)}});
    const WidthOptimum best = optimalWidth(sweep);
    EXPECT_EQ(best.backEnd, 4);
    EXPECT_EQ(best.frontEnd, 1);
    EXPECT_EQ(best.maxPerformance, 2.0);

    // With no near-tie the maximum itself is the optimum.
    const WidthOptimum single =
        optimalWidth(handWidthSweep({{1.0, 2.0}, {1.5, 1.0}}));
    EXPECT_EQ(single.backEnd, 3);
    EXPECT_EQ(single.frontEnd, 2);
}

TEST(Headline, BackEndChangeInOneColumn)
{
    const WidthSweep sweep = handWidthSweep({{1.0, 2.0}, {1.2, 1.5}});
    EXPECT_EQ(backEndChange(sweep, 2), 1.5 / 2.0 - 1.0);
    EXPECT_EQ(backEndChange(sweep, 1), 1.2 / 1.0 - 1.0);
    EXPECT_THROW(backEndChange(sweep, 3), FatalError);
    EXPECT_THROW(backEndChange(sweep, 0), FatalError);
}

TEST(Headline, FrequencyKneeAtTwoPercentPerStage)
{
    // 1 -> 2 gains 3% per stage, not a knee; 2 -> 4 gains under 1%
    // per stage, so the knee is at 2 stages.
    const std::vector<AluPoint> knee = {
        {1, 1.0, 1.0}, {2, 1.03, 1.0}, {4, 1.04, 1.0}, {8, 1.5, 1.0}};
    EXPECT_EQ(frequencyKnee(knee), std::optional<int>(2));

    // Every step gains 10% per stage: no knee.
    const std::vector<AluPoint> steady = {
        {1, 1.0, 1.0}, {2, 1.1, 1.0}, {4, 1.1 * 1.2, 1.0}};
    EXPECT_FALSE(frequencyKnee(steady).has_value());
    EXPECT_FALSE(frequencyKnee({{1, 1.0, 1.0}}).has_value());
}

} // namespace
} // namespace otft::core
