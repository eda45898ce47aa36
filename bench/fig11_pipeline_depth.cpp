/**
 * @file
 * Paper Fig. 11: core area and performance versus pipeline depth
 * (9-15 stages) for the silicon and organic processes.
 *
 * Reproduces the paper's methodology: start from the 9-stage AnyCore
 * baseline and repeatedly cut the stage on the critical path under
 * each technology library; IPC comes from the cycle-level core model
 * on Dhrystone + six SPEC CPU2000-profile workloads; performance is
 * IPC x frequency normalized to the 9-stage baseline.
 *
 * Paper results this bench regenerates:
 *  - areas stay roughly flat with depth for both processes (11a);
 *  - silicon peaks at 10-11 stages (11b);
 *  - organic peaks at 14-15 stages (11c);
 *  - baseline frequencies ~800 MHz (silicon) and ~200 Hz (organic).
 */

#include <cstdio>
#include <iostream>

#include "core/explorer.hpp"
#include "liberty/characterizer.hpp"
#include "liberty/silicon.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace otft;

namespace {

std::size_t
runSweep(const liberty::CellLibrary &library)
{
    core::ExplorerConfig config;
    config.instructions = 100000;
    core::ArchExplorer explorer(library, config);
    const core::DepthSweep sweep = explorer.depthSweep(15);

    std::printf("\n== %s ==\n", library.name().c_str());
    std::printf("baseline (9-stage) frequency: %s\n",
                formatSi(sweep.points[0].timing.frequency, "Hz").c_str());

    const double f0 = sweep.points[0].timing.frequency;
    const double a0 = sweep.points[0].timing.area;

    // Fig. 11(a): normalized core area per depth.
    Table area({"stages", "area (norm)", "frequency (norm)",
                "critical stage"});
    for (const auto &pt : sweep.points) {
        area.row()
            .add(static_cast<long long>(pt.config.totalStages()))
            .add(pt.timing.area / a0, 4)
            .add(pt.timing.frequency / f0, 4)
            .add(arch::toString(pt.timing.critical));
    }
    area.render(std::cout);

    // Fig. 11(b/c): per-benchmark normalized performance.
    std::vector<std::string> headers = {"stages"};
    for (const auto &name : sweep.workloadNames)
        headers.push_back(name);
    headers.push_back("mean");
    Table perf(std::move(headers));

    // Per-benchmark baselines.
    std::vector<double> base;
    for (double ipc : sweep.points[0].ipc)
        base.push_back(ipc * f0);

    for (const auto &pt : sweep.points) {
        perf.row().add(
            static_cast<long long>(pt.config.totalStages()));
        for (std::size_t w = 0; w < pt.ipc.size(); ++w)
            perf.add(pt.ipc[w] * pt.timing.frequency / base[w], 4);
        perf.add(pt.performance / sweep.points[0].performance, 4);
    }
    std::printf("\n");
    perf.render(std::cout);
    const core::DepthOptimum best = core::optimalDepth(sweep);
    std::printf("optimal depth: %d stages (%.2fx baseline "
                "performance)\n", best.stages, best.gain);
    return sweep.points.size();
}

} // namespace

int
main(int argc, char **argv)
{
    cli::Session session("fig11_pipeline_depth", argc, argv,
                         cli::Footer::On);
    const auto organic = liberty::cachedOrganicLibrary();
    const auto silicon = liberty::makeSiliconLibrary();

    std::printf("Fig. 11 — core area and performance vs pipeline "
                "depth\n");
    std::size_t points = runSweep(silicon);
    points += runSweep(organic);
    session.setPoints(static_cast<std::int64_t>(points));

    std::printf("\nPaper: silicon optimum at 10-11 stages, organic at "
                "14-15; areas roughly flat; baselines ~800 MHz / "
                "~200 Hz.\n");
    return 0;
}
