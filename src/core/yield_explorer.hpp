/**
 * @file
 * Yield-aware architecture exploration.
 *
 * The nominal explorer answers "how fast is this core on the expected
 * process"; manufacturing asks "how fast can we bin it so that a
 * target fraction of flexible foils actually works". This driver
 * evaluates every design point under the mean and slow statistical
 * corner libraries (liberty/mc_characterizer), recovers the Gaussian
 * clock-period spread from the corner pair (PeriodModel), and re-bases
 * frequency and performance at a target parametric yield:
 *
 *     sigma_period = (T_slow - T_mean) / liberty::cornerSigma
 *     f(yield) = 1 / (T_mean + Phi^-1(yield) * sigma_period)
 *
 * With that, the paper's depth and width sweeps (Figs. 11/13) re-run
 * as sign-off sweeps: the best configuration at 50% yield is not
 * necessarily the best at 99%, because deeper pipelines multiply
 * per-stage sigma while wider cores grow wire spread.
 */

#ifndef OTFT_CORE_YIELD_EXPLORER_HPP
#define OTFT_CORE_YIELD_EXPLORER_HPP

#include <string>
#include <vector>

#include "core/explorer.hpp"
#include "liberty/mc_characterizer.hpp"

namespace otft::core {

/**
 * Gaussian clock-period model of one design: manufactured instances
 * have normally distributed minimum periods around the mean-corner
 * period, with the spread the slow corner implies.
 */
struct PeriodModel
{
    double mean = 0.0;  // seconds
    double sigma = 0.0; // seconds

    /**
     * The model of a (mean, slow) corner period pair:
     * sigma = max(slow - mean, 0) / liberty::cornerSigma.
     */
    static PeriodModel fromCorners(double mean_period, double slow_period);

    /**
     * Fraction of instances meeting `period`: 0.5 at the mean, Phi(3)
     * at the slow corner, and a step at the mean when sigma is zero.
     */
    double yieldAt(double period) const;

    /**
     * Shortest period a `target_yield` fraction of instances meets,
     * the inverse of yieldAt. Fatal unless the result is positive.
     */
    double periodAt(double target_yield) const;
};

/** One (frequency, yield) sample of a yield curve. */
struct YieldPoint
{
    double frequency = 0.0; // hertz
    double yield = 0.0;     // fraction of instances meeting timing
};

/** Yield-vs-frequency curve of one configuration. */
struct YieldCurve
{
    std::string libraryName;
    arch::CoreConfig config;
    double meanPeriod = 0.0;
    double slowPeriod = 0.0;
    double periodSigma = 0.0;
    double meanIpc = 0.0;
    /** Samples in increasing frequency (decreasing yield). */
    std::vector<YieldPoint> points;

    /** Yield at a clock frequency (hertz). */
    double yieldAtFrequency(double frequency) const;
    /** Fastest clock meeting `target_yield`, hertz. */
    double frequencyAtYield(double target_yield) const;
};

/** A design point evaluated at the target yield. */
struct YieldDesignPoint
{
    /** Mean-library (expected-process) evaluation. */
    DesignPoint nominal;
    /** Slow-corner minimum clock period, seconds. */
    double slowPeriod = 0.0;
    /** Implied per-instance clock-period sigma, seconds. */
    double periodSigma = 0.0;
    double targetYield = 0.0;
    /** Sign-off frequency at the target yield, hertz. */
    double yieldFrequency = 0.0;
    /** Mean IPC x yield frequency, 1/s. */
    double yieldPerformance = 0.0;
};

/** Depth sweep re-based at the target yield (Fig. 11 variant). */
struct YieldDepthSweep
{
    std::string libraryName;
    double targetYield = 0.0;
    std::vector<YieldDesignPoint> points; // one per total stage count
};

/** The best depths of a yield depth sweep, in total stages. */
struct YieldDepthOptimum
{
    /** The first strict maximum of nominal (mean-process)
     *  performance. */
    int atMean = 0;
    /** The first strict maximum of performance at the target
     *  yield. */
    int atYield = 0;
};

/**
 * Both optima of a yield depth sweep, each by firstMaximum(), so a
 * tie keeps the shallower depth. Fatal when the sweep is empty.
 */
YieldDepthOptimum bestDepths(const YieldDepthSweep &sweep);

/** Width sweep re-based at the target yield (Fig. 13 variant). */
struct YieldWidthSweep
{
    std::string libraryName;
    double targetYield = 0.0;
    /** points[be - beMin][fe - feMin]. */
    std::vector<std::vector<YieldDesignPoint>> points;
    int feMin = 1, feMax = 6;
    int beMin = 3, beMax = 7;
};

/** Yield exploration controls. */
struct YieldExplorerConfig
{
    /** Fraction of instances that must meet the sign-off clock. */
    double targetYield = 0.99;
    /** Nominal exploration settings (workloads, STA, caching). */
    ExplorerConfig explorer = {};
};

/**
 * The yield-aware exploration driver, bound to one statistical
 * library. Owns corner-library copies (ArchExplorer holds its library
 * by reference), so the StatLibrary may be dropped after construction.
 */
class YieldExplorer
{
  public:
    YieldExplorer(const liberty::StatLibrary &stat,
                  YieldExplorerConfig config = {});

    /** Synthesize + simulate one configuration at both corners. */
    YieldDesignPoint evaluate(const arch::CoreConfig &config);

    /** Yield-vs-frequency curve of one configuration. */
    YieldCurve yieldCurve(const arch::CoreConfig &config,
                          int n_points = 33);

    /**
     * The paper's depth sweep at the target yield. Stage cuts follow
     * the mean library (the designer pipelines for the expected
     * process); each resulting design is then signed off at yield.
     */
    YieldDepthSweep depthSweepAtYield(int max_stages = 15);

    /** The paper's width sweep at the target yield. */
    YieldWidthSweep widthSweepAtYield(int fe_min = 1, int fe_max = 6,
                                      int be_min = 3, int be_max = 7);

    double targetYield() const { return config_.targetYield; }
    const liberty::CellLibrary &meanLibrary() const { return mean_; }
    const liberty::CellLibrary &slowLibrary() const { return slow_; }

  private:
    /** Derive the yield numbers from a mean/slow evaluation pair. */
    YieldDesignPoint combine(DesignPoint nominal,
                             const DesignPoint &slow) const;

    liberty::CellLibrary mean_;
    liberty::CellLibrary slow_;
    YieldExplorerConfig config_;
    ArchExplorer meanExplorer_;
    ArchExplorer slowExplorer_;
};

} // namespace otft::core

#endif // OTFT_CORE_YIELD_EXPLORER_HPP
