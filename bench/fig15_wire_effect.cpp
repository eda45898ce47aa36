/**
 * @file
 * Paper Fig. 15: frequency trends for ALUs and cores with and without
 * wire cost, isolating the paper's central mechanism.
 *
 * Paper results this bench regenerates:
 *  - (a) ALU frequency vs stages: removing wire barely moves the
 *    organic curve (organic wires are already ~free) but lifts and
 *    deepens the silicon curve;
 *  - (b) core frequency vs stages: the 14-stage organic core reaches
 *    ~2x its baseline frequency while silicon reaches only ~1.5x;
 *    without wire cost the silicon design behaves like the organic
 *    one (higher frequency, deeper optimal pipeline).
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

std::vector<core::AluPoint>
aluSweep(const liberty::CellLibrary &library, bool wire)
{
    core::ExplorerConfig config;
    config.sta.wireEnabled = wire;
    core::ArchExplorer explorer(library, config);
    return explorer.aluDepthSweep({1, 2, 4, 8, 12, 16, 22, 30});
}

core::DepthSweep
coreSweep(const liberty::CellLibrary &library, bool wire)
{
    core::ExplorerConfig config;
    config.instructions = 1000; // frequency only
    config.sta.wireEnabled = wire;
    core::ArchExplorer explorer(library, config);
    return explorer.depthSweep(15);
}

/** Frequency of a depth sweep's i-th point. */
double
freq(const core::DepthSweep &sweep, std::size_t i)
{
    return sweep.points[i].timing.frequency;
}

} // namespace

int
main(int argc, char **argv)
{
    cli::Session session("fig15_wire_effect", argc, argv,
                         cli::Footer::On);
    std::size_t points = 0;
    const auto organic = liberty::cachedOrganicLibrary();
    const auto silicon = liberty::makeSiliconLibrary();

    std::printf("Fig. 15(a) — ALU frequency vs stages, with and "
                "without wire\n\n");
    {
        const auto si_w = aluSweep(silicon, true);
        const auto si_nw = aluSweep(silicon, false);
        const auto org_w = aluSweep(organic, true);
        const auto org_nw = aluSweep(organic, false);
        Table table({"stages", "Si (norm)", "Si w/o wire", "Org (norm)",
                     "Org w/o wire"});
        points += si_w.size();
        for (std::size_t i = 0; i < si_w.size(); ++i) {
            table.row()
                .add(static_cast<long long>(si_w[i].stages))
                .add(si_w[i].frequency / si_w[0].frequency, 4)
                .add(si_nw[i].frequency / si_w[0].frequency, 4)
                .add(org_w[i].frequency / org_w[0].frequency, 4)
                .add(org_nw[i].frequency / org_w[0].frequency, 4);
        }
        table.render(std::cout);
    }

    std::printf("\nFig. 15(b) — core frequency vs stages, with and "
                "without wire\n\n");
    {
        const auto si_w = coreSweep(silicon, true);
        const auto si_nw = coreSweep(silicon, false);
        const auto org_w = coreSweep(organic, true);
        const auto org_nw = coreSweep(organic, false);
        Table table({"stages", "Si (norm)", "Si w/o wire", "Org (norm)",
                     "Org w/o wire"});
        const std::size_t n =
            std::min(std::min(si_w.points.size(), si_nw.points.size()),
                     std::min(org_w.points.size(), org_nw.points.size()));
        points += n;
        for (std::size_t i = 0; i < n; ++i) {
            table.row()
                .add(static_cast<long long>(
                    si_w.points[i].config.totalStages()))
                .add(freq(si_w, i) / freq(si_w, 0), 4)
                .add(freq(si_nw, i) / freq(si_w, 0), 4)
                .add(freq(org_w, i) / freq(org_w, 0), 4)
                .add(freq(org_nw, i) / freq(org_w, 0), 4);
        }
        table.render(std::cout);

        // The paper's 14-stage comparison.
        const auto si_14 = core::frequencyGainAt(si_w, 14);
        const auto org_14 = core::frequencyGainAt(org_w, 14);
        if (si_14 && org_14)
            std::printf("\n14-stage frequency vs own baseline: "
                        "silicon %.2fx (paper ~1.5x), organic "
                        "%.2fx (paper ~2.0x)\n",
                        *si_14, *org_14);
    }

    std::printf("\nPaper: without wire cost the amount of logic per "
                "stage becomes similar for both processes; the "
                "silicon curve moves toward the organic one.\n");
    session.setPoints(static_cast<std::int64_t>(points));
    return 0;
}
