/**
 * @file
 * Extension (paper Secs. 1, 5.3, 5.4): yield-aware architecture
 * sign-off under process variation.
 *
 * The paper's depth/width sweeps (Figs. 11/13) report expected-process
 * frequency. A flexible-electronics product instead bins at a target
 * parametric yield: the sign-off clock is the one a chosen fraction of
 * manufactured foils actually meets. This bench derives Gaussian
 * clock-period models from the statistical corner libraries
 * (liberty/mc_characterizer) and emits:
 *
 *  1. yield-vs-frequency curves for the baseline core under both the
 *     pentacene Monte Carlo library and the silicon library with
 *     analytic SS/FF-style corners;
 *  2. the paper's depth sweep (Fig. 11) re-based at the target yield;
 *  3. a width sweep corner (Fig. 13) re-based at the target yield.
 *
 * The organic statistical library is loaded from
 * organic_mc_{mean,slow,fast}.lib when a previous mc_characterize run
 * left them in the working directory, and characterized on the fly
 * (--mc-samples / --mc-seed) otherwise.
 *
 * Flags: --mc-samples N, --mc-seed S, --mc-yield Y (cli::Session).
 */

#include <cstdio>
#include <iostream>
#include <optional>

#include "core/yield_explorer.hpp"
#include "liberty/serialize.hpp"
#include "liberty/silicon.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace otft;

namespace {

/** Load the organic corner triple, characterizing if missing. */
liberty::StatLibrary
organicStatLibrary(const cli::Session &session)
{
    const std::string prefix = "organic_mc";
    std::optional<liberty::CellLibrary> mean =
        liberty::tryLoadLibrary(prefix + "_mean.lib");
    std::optional<liberty::CellLibrary> slow =
        liberty::tryLoadLibrary(prefix + "_slow.lib");
    std::optional<liberty::CellLibrary> fast =
        liberty::tryLoadLibrary(prefix + "_fast.lib");
    if (mean && slow && fast) {
        std::printf("loaded cached %s_{mean,slow,fast}.lib\n",
                    prefix.c_str());
        return {std::move(*mean), std::move(*slow), std::move(*fast),
                {}, 0, 0};
    }
    liberty::McConfig config;
    config.samples = session.mcSamples();
    config.seed = session.mcSeed();
    std::printf("characterizing %d Monte Carlo samples (seed %llu)\n",
                config.samples,
                static_cast<unsigned long long>(config.seed));
    liberty::StatLibrary stat =
        liberty::McCharacterizer(config).run();
    liberty::saveLibrary(prefix + "_mean.lib", stat.mean);
    liberty::saveLibrary(prefix + "_slow.lib", stat.slow);
    liberty::saveLibrary(prefix + "_fast.lib", stat.fast);
    return stat;
}

/** Print one yield-vs-frequency curve. */
void
printCurve(const core::YieldCurve &curve)
{
    std::printf("\n== %s: yield vs frequency (baseline core) ==\n",
                curve.libraryName.c_str());
    std::printf("mean period %s, sigma %s\n",
                formatSi(curve.meanPeriod, "s").c_str(),
                formatSi(curve.periodSigma, "s").c_str());
    Table table({"frequency", "yield"});
    for (const core::YieldPoint &point : curve.points)
        table.row()
            .add(formatSi(point.frequency, "Hz"))
            .add(point.yield, 4);
    table.render(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    cli::Session session("yield_sweep", argc, argv, cli::Footer::On);
    const double target_yield = session.mcYield();
    std::printf("Yield-aware exploration at %.1f%% target yield\n\n",
                100.0 * target_yield);
    std::int64_t points = 0;

    // -- Technologies: organic Monte Carlo corners + silicon analytic
    // corners (a mature process; ~1.5% per-entry sigma puts the SS
    // corner ~4.5% off mean, the usual mature-node spread).
    const liberty::StatLibrary organic = organicStatLibrary(session);
    const liberty::StatLibrary silicon = liberty::scaledCorners(
        liberty::makeSiliconLibrary(), 0.015, "silicon");

    core::YieldExplorerConfig config;
    config.targetYield = target_yield;
    core::YieldExplorer organic_explorer(organic, config);
    core::YieldExplorer silicon_explorer(silicon, config);

    // -- 1. Yield-vs-frequency curves, both technologies.
    const arch::CoreConfig baseline = arch::baselineConfig();
    const core::YieldCurve organic_curve =
        organic_explorer.yieldCurve(baseline, 13);
    const core::YieldCurve silicon_curve =
        silicon_explorer.yieldCurve(baseline, 13);
    printCurve(organic_curve);
    printCurve(silicon_curve);
    points += 26;

    std::printf("\nsign-off frequency at %.1f%% yield: organic %s "
                "(mean-process %s), silicon %s\n",
                100.0 * target_yield,
                formatSi(organic_curve.frequencyAtYield(target_yield),
                         "Hz")
                    .c_str(),
                formatSi(1.0 / organic_curve.meanPeriod, "Hz").c_str(),
                formatSi(silicon_curve.frequencyAtYield(target_yield),
                         "Hz")
                    .c_str());

    // -- 2. Depth sweep at yield (Fig. 11 variant, organic).
    const core::YieldDepthSweep depth =
        organic_explorer.depthSweepAtYield(15);
    std::printf("\n== %s: depth sweep at %.1f%% yield ==\n",
                depth.libraryName.c_str(), 100.0 * target_yield);
    Table depth_table({"stages", "f mean", "f @yield", "perf (norm)",
                       "perf @yield (norm)"});
    const double perf0 = depth.points[0].nominal.performance;
    const double yperf0 = depth.points[0].yieldPerformance;
    for (const core::YieldDesignPoint &pt : depth.points) {
        depth_table.row()
            .add(static_cast<long long>(
                pt.nominal.config.totalStages()))
            .add(formatSi(pt.nominal.timing.frequency, "Hz"))
            .add(formatSi(pt.yieldFrequency, "Hz"))
            .add(pt.nominal.performance / perf0, 4)
            .add(pt.yieldPerformance / yperf0, 4);
    }
    depth_table.render(std::cout);
    const core::YieldDepthOptimum best = core::bestDepths(depth);
    std::printf("best depth: %d stages at the mean process, %d at "
                "%.1f%% yield\n",
                best.atMean, best.atYield, 100.0 * target_yield);
    points += static_cast<std::int64_t>(depth.points.size());

    // -- 3. Width sweep corner at yield (Fig. 13 variant, organic;
    // the 1-3 x 3-5 corner of the paper's grid keeps the bench brisk
    // while still spanning narrow-vs-wide).
    const core::YieldWidthSweep width =
        organic_explorer.widthSweepAtYield(1, 3, 3, 5);
    std::printf("\n== %s: width sweep at %.1f%% yield "
                "(perf normalized to 1-wide) ==\n",
                width.libraryName.c_str(), 100.0 * target_yield);
    Table width_table(
        {"fe x be", "f mean", "f @yield", "perf @yield (norm)"});
    const double wperf0 = width.points[0][0].yieldPerformance;
    for (std::size_t be = 0; be < width.points.size(); ++be) {
        for (std::size_t fe = 0; fe < width.points[be].size(); ++fe) {
            const core::YieldDesignPoint &pt = width.points[be][fe];
            char label[32];
            std::snprintf(label, sizeof label, "%dx%d",
                          width.feMin + static_cast<int>(fe),
                          width.beMin + static_cast<int>(be));
            width_table.row()
                .add(label)
                .add(formatSi(pt.nominal.timing.frequency, "Hz"))
                .add(formatSi(pt.yieldFrequency, "Hz"))
                .add(pt.yieldPerformance / wperf0, 4);
            ++points;
        }
    }
    width_table.render(std::cout);

    session.setPoints(points);
    session.addFooterField("target_yield", target_yield);
    session.addFooterField("organic_f_yield",
                           organic_curve.frequencyAtYield(target_yield));
    session.addFooterField("silicon_f_yield",
                           silicon_curve.frequencyAtYield(target_yield));
    return 0;
}
