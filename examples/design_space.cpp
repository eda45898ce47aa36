/**
 * @file
 * Joint design-space tour: depth x width x technology in one CSV,
 * plus a synthesis-style critical-path report for a chosen design —
 * the "what would I actually tape out" workflow on top of the
 * framework.
 *
 * Usage: ./build/examples/design_space [max_stages]
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "core/explorer.hpp"
#include "liberty/characterizer.hpp"
#include "liberty/silicon.hpp"
#include "core/blocks.hpp"
#include "sta/path_report.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace otft;

int
main(int argc, char **argv)
{
    cli::Session session("design_space", argc, argv);
    const int max_stages = argc > 1 ? std::atoi(argv[1]) : 13;

    const auto organic = liberty::cachedOrganicLibrary();
    const auto silicon = liberty::makeSiliconLibrary();

    std::printf("# joint design space: technology x width x depth\n");
    Table csv({"technology", "fetch_width", "backend_width", "stages",
               "frequency_hz", "mean_ipc", "performance", "area_m2"});

    for (const liberty::CellLibrary *lib : {&silicon, &organic}) {
        core::ExplorerConfig config;
        config.instructions = 30000;
        core::ArchExplorer explorer(*lib, config);
        for (int fe : {1, 2, 4}) {
            for (int be : {3, 5}) {
                arch::CoreConfig candidate = arch::baselineConfig();
                candidate.fetchWidth = fe;
                candidate.aluPipes = be - 2;
                while (true) {
                    const auto pt = explorer.evaluate(candidate);
                    csv.row()
                        .add(lib->name())
                        .add(static_cast<long long>(fe))
                        .add(static_cast<long long>(be))
                        .add(static_cast<long long>(
                            candidate.totalStages()))
                        .add(pt.timing.frequency, 6)
                        .add(pt.meanIpc, 4)
                        .add(pt.performance, 6)
                        .add(pt.timing.area, 4);
                    if (candidate.totalStages() >= max_stages)
                        break;
                    candidate =
                        explorer.synthesizer().deepen(candidate);
                }
            }
        }
    }
    csv.renderCsv(std::cout);

    // Synthesis-style report: where does the organic baseline's
    // execute stage spend its cycle?
    std::printf("\n# critical path of the organic execute block "
                "(baseline widths)\n");
    sta::StaEngine engine(organic);
    const netlist::Netlist &block = core::regionNetlist(
        arch::Region::Execute, arch::baselineConfig());
    const auto report = sta::reportCriticalPath(engine, block);
    report.render(std::cout);

    std::printf("\n# and the same block in silicon (note the wire "
                "share)\n");
    sta::StaEngine si_engine(silicon);
    sta::reportCriticalPath(si_engine, block).render(std::cout);
    return 0;
}
