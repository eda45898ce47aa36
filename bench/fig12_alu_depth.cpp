/**
 * @file
 * Paper Fig. 12: area and clock frequency of the complex ALU (two
 * DesignWare-style pipelined multiplier/divider units) versus
 * pipeline depth, for both processes.
 *
 * Paper results this bench regenerates:
 *  - silicon frequency stops improving near 8 stages while area
 *    keeps rising slowly;
 *  - organic frequency and area grow ~linearly with depth, topping
 *    out around 22 stages (area reaching ~4x by 30 stages).
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
    core::ArchExplorer explorer(library);
    const std::vector<int> stages = {1,  2,  4,  6,  8,  10, 12, 14,
                                     16, 18, 20, 22, 26, 30};
    const auto points = explorer.aluDepthSweep(stages);

    std::printf("\n== %s ==\n", library.name().c_str());
    const double f0 = points[0].frequency;
    const double a0 = points[0].area;
    Table table({"stages", "frequency", "freq (norm)", "area (norm)"});
    for (const auto &pt : points) {
        table.row()
            .add(static_cast<long long>(pt.stages))
            .add(formatSi(pt.frequency, "Hz"))
            .add(pt.frequency / f0, 4)
            .add(pt.area / a0, 4);
    }
    table.render(std::cout);

    if (const auto knee = core::frequencyKnee(points))
        std::printf("frequency knee: ~%d stages\n", *knee);
    return points.size();
}

} // namespace

int
main(int argc, char **argv)
{
    cli::Session session("fig12_alu_depth", argc, argv,
                         cli::Footer::On);
    const auto organic = liberty::cachedOrganicLibrary();
    const auto silicon = liberty::makeSiliconLibrary();

    std::printf("Fig. 12 — complex ALU area and frequency vs pipeline "
                "depth\n");
    std::size_t points = runSweep(silicon);
    points += runSweep(organic);
    session.setPoints(static_cast<std::int64_t>(points));

    std::printf("\nPaper: silicon saturates near 8 stages; organic "
                "keeps scaling to ~22 stages with area growing to "
                "~4x.\n");
    return 0;
}
