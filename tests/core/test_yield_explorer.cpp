/**
 * @file
 * Tests for the Gaussian clock-period model and the yield-aware
 * architecture explorer.
 */

#include <utility>

#include <gtest/gtest.h>

#include "arch/config.hpp"
#include "core/yield_explorer.hpp"
#include "liberty/silicon.hpp"
#include "netlist/generators.hpp"
#include "sta/sta.hpp"
#include "util/logging.hpp"
#include "util/stats.hpp"

namespace otft::core {
namespace {

/** Silicon with synthetic corners: cheap and deterministic. */
liberty::StatLibrary
testCorners(double sigma_fraction = 0.02)
{
    return liberty::scaledCorners(liberty::makeSiliconLibrary(),
                                  sigma_fraction, "silicon_yield_test");
}

/** Minimum (mean, slow) clock periods of a flop-bounded inverter chain. */
std::pair<double, double>
chainCornerPeriods(double sigma_fraction = 0.02)
{
    netlist::Netlist nl;
    netlist::NetBuilder b(nl);
    auto g = b.dff(b.input("a"));
    for (int i = 0; i < 8; ++i)
        g = b.notGate(g);
    b.output("o", b.dff(g));
    const liberty::StatLibrary stat = testCorners(sigma_fraction);
    return {sta::StaEngine(stat.mean).analyze(nl).minClockPeriod,
            sta::StaEngine(stat.slow).analyze(nl).minClockPeriod};
}

TEST(PeriodModel, SigmaIsTheSlowSpreadOverThreeSigma)
{
    const auto [mean, slow] = chainCornerPeriods();
    const PeriodModel model = PeriodModel::fromCorners(mean, slow);
    EXPECT_DOUBLE_EQ(model.mean, mean);
    EXPECT_NEAR(model.sigma, (slow - mean) / 3.0, 1e-18);
    EXPECT_GT(model.sigma, 0.0);
}

TEST(PeriodModel, YieldBehavesLikeAGaussian)
{
    const auto [mean, slow] = chainCornerPeriods();
    const PeriodModel model = PeriodModel::fromCorners(mean, slow);
    // Half the instances meet the mean period.
    EXPECT_NEAR(model.yieldAt(mean), 0.5, 1e-12);
    // The slow corner is the 3-sigma quantile.
    EXPECT_NEAR(model.yieldAt(slow), normalCdf(3.0), 1e-9);
    // Monotone increasing in period.
    EXPECT_LT(model.yieldAt(0.9 * mean), model.yieldAt(1.1 * mean));
}

TEST(PeriodModel, PeriodAtYieldInvertsYieldAt)
{
    const auto [mean, slow] = chainCornerPeriods();
    const PeriodModel model = PeriodModel::fromCorners(mean, slow);
    for (double y : {0.1, 0.5, 0.9, 0.99, 0.999}) {
        const double period = model.periodAt(y);
        ASSERT_GT(period, 0.0);
        EXPECT_NEAR(model.yieldAt(period), y, 1e-9);
    }
    // Higher yield targets demand slower clocks.
    EXPECT_LT(model.periodAt(0.5), model.periodAt(0.99));
}

TEST(PeriodModel, ZeroSigmaCornersDegenerateToStepYield)
{
    // Identical corners: the Gaussian collapses to a step at the mean.
    const auto [mean, slow] = chainCornerPeriods(0.0);
    const PeriodModel model = PeriodModel::fromCorners(mean, slow);
    EXPECT_DOUBLE_EQ(model.sigma, 0.0);
    EXPECT_DOUBLE_EQ(model.yieldAt(mean * 1.01), 1.0);
    EXPECT_DOUBLE_EQ(model.yieldAt(mean * 0.99), 0.0);
}

YieldExplorerConfig
quickConfig(double target_yield = 0.99)
{
    YieldExplorerConfig config;
    config.targetYield = target_yield;
    config.explorer.instructions = 8000;
    return config;
}

TEST(YieldExplorer, EvaluateDeratesFrequencyAtHighYield)
{
    YieldExplorer explorer(testCorners(), quickConfig());
    const auto point = explorer.evaluate(arch::baselineConfig());
    EXPECT_GT(point.nominal.performance, 0.0);
    EXPECT_GT(point.periodSigma, 0.0);
    EXPECT_GT(point.slowPeriod, point.nominal.timing.clockPeriod);
    // 99% yield costs frequency relative to the mean process.
    EXPECT_LT(point.yieldFrequency, point.nominal.timing.frequency);
    EXPECT_GT(point.yieldFrequency, 0.0);
    EXPECT_NEAR(point.yieldPerformance,
                point.nominal.meanIpc * point.yieldFrequency,
                point.yieldPerformance * 1e-9);
    EXPECT_DOUBLE_EQ(point.targetYield, 0.99);
}

TEST(YieldExplorer, MedianYieldMatchesMeanProcess)
{
    // At 50% target yield the sign-off clock is the mean-process
    // clock: Phi^-1(0.5) = 0.
    YieldExplorer explorer(testCorners(), quickConfig(0.5));
    const auto point = explorer.evaluate(arch::baselineConfig());
    EXPECT_NEAR(point.yieldFrequency, point.nominal.timing.frequency,
                point.yieldFrequency * 1e-9);
}

TEST(YieldExplorer, YieldCurveIsMonotone)
{
    YieldExplorer explorer(testCorners(), quickConfig());
    const auto curve = explorer.yieldCurve(arch::baselineConfig(), 17);
    ASSERT_EQ(curve.points.size(), 17u);
    EXPECT_GT(curve.meanIpc, 0.0);
    for (std::size_t i = 1; i < curve.points.size(); ++i) {
        // Increasing frequency, non-increasing yield.
        EXPECT_GT(curve.points[i].frequency,
                  curve.points[i - 1].frequency);
        EXPECT_LE(curve.points[i].yield, curve.points[i - 1].yield);
    }
    // The sweep spans both tails of the Gaussian.
    EXPECT_GT(curve.points.front().yield, 0.995);
    EXPECT_LT(curve.points.back().yield, 0.005);
}

TEST(YieldExplorer, CurveInterpolationInvertsItself)
{
    YieldExplorer explorer(testCorners(), quickConfig());
    const auto curve = explorer.yieldCurve(arch::baselineConfig(), 33);
    const double f99 = curve.frequencyAtYield(0.99);
    ASSERT_GT(f99, 0.0);
    EXPECT_NEAR(curve.yieldAtFrequency(f99), 0.99, 0.01);
    // Analytic cross-check against the Gaussian period model.
    EXPECT_LT(f99, 1.0 / curve.meanPeriod);
}

TEST(YieldExplorer, DepthSweepSignsOffEveryPoint)
{
    YieldExplorer explorer(testCorners(), quickConfig());
    const auto sweep = explorer.depthSweepAtYield(11);
    ASSERT_EQ(sweep.points.size(), 3u); // stages 9, 10, 11
    EXPECT_DOUBLE_EQ(sweep.targetYield, 0.99);
    for (const YieldDesignPoint &p : sweep.points) {
        EXPECT_GT(p.yieldFrequency, 0.0);
        EXPECT_LT(p.yieldFrequency, p.nominal.timing.frequency);
        EXPECT_GT(p.slowPeriod, p.nominal.timing.clockPeriod);
    }
}

TEST(YieldExplorer, WidthSweepShapeAndSignOff)
{
    YieldExplorer explorer(testCorners(), quickConfig());
    const auto sweep = explorer.widthSweepAtYield(1, 2, 3, 4);
    ASSERT_EQ(sweep.points.size(), 2u);    // be 3..4
    ASSERT_EQ(sweep.points[0].size(), 2u); // fe 1..2
    for (const auto &row : sweep.points)
        for (const YieldDesignPoint &p : row) {
            EXPECT_GT(p.yieldPerformance, 0.0);
            EXPECT_LE(p.yieldPerformance, p.nominal.performance);
        }
}

TEST(YieldExplorer, BestDepthsTakeEachFirstStrictMaximum)
{
    // Mean-process performance peaks at 11 stages; performance at
    // yield ties at 10 and 12 stages, and the tie keeps 10.
    YieldDepthSweep sweep;
    const double mean_perf[] = {1.0, 1.4, 1.6, 1.5};
    const double yield_perf[] = {0.9, 1.2, 1.1, 1.2};
    for (int i = 0; i < 4; ++i) {
        YieldDesignPoint point;
        point.nominal.config = arch::baselineConfig();
        point.nominal.config.stagesIn(arch::Region::Issue) += i;
        point.nominal.performance = mean_perf[i];
        point.yieldPerformance = yield_perf[i];
        sweep.points.push_back(point);
    }
    const YieldDepthOptimum best = bestDepths(sweep);
    EXPECT_EQ(best.atMean, 11);
    EXPECT_EQ(best.atYield, 10);
    EXPECT_THROW(bestDepths(YieldDepthSweep{}), FatalError);
}

} // namespace
} // namespace otft::core
