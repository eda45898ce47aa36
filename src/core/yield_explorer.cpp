#include "core/yield_explorer.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"
#include "util/stats.hpp"
#include "util/stats_registry.hpp"
#include "util/trace.hpp"

namespace otft::core {

PeriodModel
PeriodModel::fromCorners(double mean_period, double slow_period)
{
    return {mean_period,
            std::max(slow_period - mean_period, 0.0) / liberty::cornerSigma};
}

double
PeriodModel::yieldAt(double period) const
{
    if (sigma <= 0.0)
        return period >= mean ? 1.0 : 0.0;
    return normalCdf((period - mean) / sigma);
}

double
PeriodModel::periodAt(double target_yield) const
{
    const double period = mean + normalQuantile(target_yield) * sigma;
    if (period <= 0.0)
        fatal("PeriodModel: non-positive period at yield ", target_yield);
    return period;
}

double
YieldCurve::yieldAtFrequency(double frequency) const
{
    if (frequency <= 0.0)
        fatal("yieldAtFrequency: frequency must be > 0");
    return PeriodModel{meanPeriod, periodSigma}.yieldAt(1.0 / frequency);
}

double
YieldCurve::frequencyAtYield(double target_yield) const
{
    return 1.0 / PeriodModel{meanPeriod, periodSigma}.periodAt(target_yield);
}

YieldExplorer::YieldExplorer(const liberty::StatLibrary &stat,
                             YieldExplorerConfig config)
    : mean_(stat.mean), slow_(stat.slow), config_(config),
      meanExplorer_(mean_, config.explorer),
      slowExplorer_(slow_, config.explorer)
{
    if (!(config_.targetYield > 0.0 && config_.targetYield < 1.0))
        fatal("YieldExplorer: target yield must lie in (0, 1), got ",
              config_.targetYield);
}

YieldDesignPoint
YieldExplorer::combine(DesignPoint nominal,
                       const DesignPoint &slow) const
{
    const PeriodModel model = PeriodModel::fromCorners(
        nominal.timing.clockPeriod, slow.timing.clockPeriod);
    YieldDesignPoint point;
    point.slowPeriod = slow.timing.clockPeriod;
    point.periodSigma = model.sigma;
    point.targetYield = config_.targetYield;
    point.yieldFrequency = 1.0 / model.periodAt(config_.targetYield);
    point.yieldPerformance = nominal.meanIpc * point.yieldFrequency;
    point.nominal = std::move(nominal);
    return point;
}

YieldDesignPoint
YieldExplorer::evaluate(const arch::CoreConfig &config)
{
    static stats::Counter &stat_points = stats::counter(
        "yield.points.evaluated",
        "design points evaluated at mean+slow corners");
    OTFT_TRACE_SCOPE("core.yield.evaluate");
    ++stat_points;
    DesignPoint nominal = meanExplorer_.evaluate(config);
    const DesignPoint slow = slowExplorer_.evaluate(config);
    return combine(std::move(nominal), slow);
}

YieldCurve
YieldExplorer::yieldCurve(const arch::CoreConfig &config, int n_points)
{
    if (n_points < 2)
        fatal("yieldCurve: need at least 2 points, got ", n_points);
    OTFT_TRACE_SCOPE("core.yield.curve");
    const YieldDesignPoint point = evaluate(config);

    YieldCurve curve;
    curve.libraryName = mean_.name();
    curve.config = point.nominal.config;
    curve.meanPeriod = point.nominal.timing.clockPeriod;
    curve.slowPeriod = point.slowPeriod;
    curve.periodSigma = point.periodSigma;
    curve.meanIpc = point.nominal.meanIpc;

    // Sweep the period over mean +- 3.5 sigma (clamped positive);
    // emitted in increasing frequency so the curve reads left to
    // right as "faster binning, lower yield".
    const double span = 3.5 * point.periodSigma;
    const double t_hi = curve.meanPeriod + span;
    const double t_lo =
        std::max(curve.meanPeriod - span, 0.05 * curve.meanPeriod);
    for (int i = 0; i < n_points; ++i) {
        const double t =
            t_hi + (t_lo - t_hi) * static_cast<double>(i) /
                       static_cast<double>(n_points - 1);
        YieldPoint yp;
        yp.frequency = 1.0 / t;
        yp.yield = curve.yieldAtFrequency(yp.frequency);
        curve.points.push_back(yp);
    }
    return curve;
}

YieldDepthSweep
YieldExplorer::depthSweepAtYield(int max_stages)
{
    OTFT_TRACE_SCOPE("core.yield.depth_sweep");
    const DepthSweep nominal = meanExplorer_.depthSweep(max_stages);
    YieldDepthSweep sweep;
    sweep.libraryName = mean_.name();
    sweep.targetYield = config_.targetYield;
    for (const DesignPoint &point : nominal.points) {
        const DesignPoint slow = slowExplorer_.evaluate(point.config);
        sweep.points.push_back(combine(point, slow));
    }
    return sweep;
}

YieldWidthSweep
YieldExplorer::widthSweepAtYield(int fe_min, int fe_max, int be_min,
                                 int be_max)
{
    OTFT_TRACE_SCOPE("core.yield.width_sweep");
    const WidthSweep nominal =
        meanExplorer_.widthSweep(fe_min, fe_max, be_min, be_max);
    YieldWidthSweep sweep;
    sweep.libraryName = mean_.name();
    sweep.targetYield = config_.targetYield;
    sweep.feMin = nominal.feMin;
    sweep.feMax = nominal.feMax;
    sweep.beMin = nominal.beMin;
    sweep.beMax = nominal.beMax;
    for (const auto &row : nominal.points) {
        std::vector<YieldDesignPoint> out_row;
        for (const DesignPoint &point : row) {
            const DesignPoint slow =
                slowExplorer_.evaluate(point.config);
            out_row.push_back(combine(point, slow));
        }
        sweep.points.push_back(std::move(out_row));
    }
    return sweep;
}

YieldDepthOptimum
bestDepths(const YieldDepthSweep &sweep)
{
    std::vector<double> at_mean, at_yield;
    for (const YieldDesignPoint &pt : sweep.points) {
        at_mean.push_back(pt.nominal.performance);
        at_yield.push_back(pt.yieldPerformance);
    }
    const auto stages = [&](std::size_t i) {
        return sweep.points[i].nominal.config.totalStages();
    };
    return {stages(firstMaximum(at_mean)), stages(firstMaximum(at_yield))};
}

} // namespace otft::core
