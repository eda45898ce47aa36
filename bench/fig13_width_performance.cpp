/**
 * @file
 * Paper Fig. 13: normalized core performance matrices over front-end
 * width (1-6) and back-end width (3-7 execution pipes) for both
 * processes.
 *
 * Paper results this bench regenerates:
 *  - silicon optimum at M[4][2] with sharper fall-off around it;
 *  - organic optimum wider (paper M[7][2]) with a much flatter
 *    profile along the back-end axis — "organic technology is less
 *    sensitive to front-end and back-end width change".
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
    const core::WidthSweep sweep = explorer.widthSweep();

    const core::WidthOptimum best = core::optimalWidth(sweep);

    std::printf("\n== %s — normalized performance ==\n",
                library.name().c_str());
    std::vector<std::string> headers = {"back-end \\ fe"};
    for (int fe = sweep.feMin; fe <= sweep.feMax; ++fe)
        headers.push_back(std::to_string(fe));
    Table table(std::move(headers));

    for (int be = sweep.beMin; be <= sweep.beMax; ++be) {
        auto &row = table.row();
        row.add(static_cast<long long>(be));
        for (int fe = sweep.feMin; fe <= sweep.feMax; ++fe) {
            const auto &pt =
                sweep.points[static_cast<std::size_t>(be - sweep.beMin)]
                            [static_cast<std::size_t>(fe - sweep.feMin)];
            row.add(pt.performance / best.maxPerformance, 3);
        }
    }
    table.render(std::cout);
    std::printf("optimum: M[%d][%d] (back-end %d, front-end %d)\n",
                best.backEnd, best.frontEnd, best.backEnd,
                best.frontEnd);

    // Back-end sensitivity at the optimum front-end column.
    std::printf("back-end 3 -> 7 performance change at fe=%d: "
                "%+.1f%%\n", best.frontEnd,
                100.0 * core::backEndChange(sweep, best.frontEnd));

    std::size_t n = 0;
    for (const auto &row : sweep.points)
        n += row.size();
    return n;
}

} // namespace

int
main(int argc, char **argv)
{
    cli::Session session("fig13_width_performance", argc, argv,
                         cli::Footer::On);
    const auto organic = liberty::cachedOrganicLibrary();
    const auto silicon = liberty::makeSiliconLibrary();

    std::printf("Fig. 13 — core performance vs superscalar widths\n");
    std::size_t points = runSweep(silicon);
    points += runSweep(organic);
    session.setPoints(static_cast<std::int64_t>(points));

    std::printf("\nPaper: silicon optimum M[4][2] with pronounced "
                "differences between neighbors; organic optimum three "
                "pipes wider with a flat profile.\n");
    return 0;
}
