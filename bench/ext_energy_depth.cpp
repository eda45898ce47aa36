/**
 * @file
 * Extension (paper Sec. 7 future work: "energy optimization"):
 * energy per operation versus pipeline depth for the complex ALU in
 * both technologies.
 *
 * Deeper pipelines raise throughput but add register ranks (clock and
 * static power). The energy-optimal depth is shallower than the
 * frequency-optimal depth — and the gap differs between technologies
 * because organic pseudo-E cells burn ratioed static current that
 * dwarfs switching energy, while silicon is dynamic-dominated.
 */

#include <cstdio>
#include <iostream>

#include "core/blocks.hpp"
#include "liberty/characterizer.hpp"
#include "liberty/silicon.hpp"
#include "sta/pipeline.hpp"
#include "sta/power.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace otft;

namespace {

std::size_t
runSweep(const liberty::CellLibrary &library)
{
    const netlist::Netlist &alu = core::complexAluNetlist();
    sta::Pipeliner pipeliner(library);
    sta::StaEngine timing(library);
    sta::PowerEngine power(library);

    std::printf("\n== %s ==\n", library.name().c_str());
    Table table({"stages", "freq", "static", "dynamic", "clock",
                 "total power", "energy/op (norm)"});

    double best_energy = 0.0;
    int best_stage = 0;
    double e1 = 0.0;
    for (int stages : {1, 2, 4, 8, 12, 16, 22, 30}) {
        const auto report = pipeliner.pipeline(alu, stages);
        const auto sta = timing.analyze(report.netlist);
        const auto pw = power.estimate(report.netlist,
                                       sta.maxFrequency);
        // One operation completes per cycle at full occupancy.
        const double energy_per_op = pw.total() / sta.maxFrequency;
        if (stages == 1)
            e1 = energy_per_op;
        table.row()
            .add(static_cast<long long>(stages))
            .add(formatSi(sta.maxFrequency, "Hz"))
            .add(formatSi(pw.staticPower, "W"))
            .add(formatSi(pw.dynamicPower, "W"))
            .add(formatSi(pw.clockPower, "W"))
            .add(formatSi(pw.total(), "W"))
            .add(energy_per_op / e1, 4);
        if (best_stage == 0 || energy_per_op < best_energy) {
            best_energy = energy_per_op;
            best_stage = stages;
        }
    }
    table.render(std::cout);
    std::printf("energy-optimal depth: %d stages\n", best_stage);
    return table.numRows();
}

} // namespace

int
main(int argc, char **argv)
{
    cli::Session session("ext_energy_depth", argc, argv,
                         cli::Footer::On);
    std::printf("Extension — energy per operation vs ALU pipeline "
                "depth\n");
    const auto organic = liberty::cachedOrganicLibrary();
    const auto silicon = liberty::makeSiliconLibrary();
    std::size_t points = runSweep(silicon);
    points += runSweep(organic);
    session.setPoints(static_cast<std::int64_t>(points));
    std::printf("\nReading: organic energy/op keeps improving with "
                "depth as long as frequency gains outrun the added "
                "register static burn — throughput amortizes the "
                "ratioed current. Silicon bottoms out once clock "
                "power of the added ranks overtakes the frequency "
                "gain.\n");
    return 0;
}
