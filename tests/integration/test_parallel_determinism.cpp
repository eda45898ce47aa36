/**
 * @file
 * End-to-end determinism of the parallel layer: the NLDM
 * characterization and the explorer design-space sweep must produce
 * byte-identical dumps at --jobs 1 and --jobs 8. Every double is
 * printed with %.17g (round-trip exact), so any reordering of
 * floating-point operations or cross-task contamination flips bytes
 * and fails the comparison.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "arch/config.hpp"
#include "core/explorer.hpp"
#include "liberty/characterizer.hpp"
#include "liberty/silicon.hpp"
#include "util/parallel.hpp"
#include "util/result_cache.hpp"

namespace otft {
namespace {

void
append(std::string &out, const char *label, double v)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%s=%.17g\n", label, v);
    out += buffer;
}

void
append(std::string &out, const char *label,
       const std::vector<double> &values)
{
    out += label;
    char buffer[40];
    for (double v : values) {
        std::snprintf(buffer, sizeof(buffer), " %.17g", v);
        out += buffer;
    }
    out += "\n";
}

/** Full-precision text dump of one characterized cell. */
std::string
dumpCell(const liberty::StdCell &cell)
{
    std::string out = "cell " + cell.name + "\n";
    append(out, "area", cell.area);
    append(out, "leakage", cell.leakage);
    append(out, "inputCap", cell.inputCap);
    for (const auto &arc : cell.arcs) {
        out += "arc " + arc.fromPin + "\n";
        for (int sense = 0; sense < 2; ++sense) {
            append(out, "delay.slews", arc.delay[sense].slewAxis());
            append(out, "delay.loads", arc.delay[sense].loadAxis());
            append(out, "delay.values", arc.delay[sense].values());
            append(out, "slew.values",
                   arc.outputSlew[sense].values());
        }
    }
    return out;
}

/** Full-precision text dump of one evaluated design point. */
std::string
dumpPoint(const core::DesignPoint &point)
{
    std::string out;
    out += "point fe=" + std::to_string(point.config.fetchWidth) +
           " alu=" + std::to_string(point.config.aluPipes) + "\n";
    append(out, "frequency", point.timing.frequency);
    append(out, "area", point.timing.area);
    append(out, "ipc", point.ipc);
    append(out, "meanIpc", point.meanIpc);
    append(out, "performance", point.performance);
    return out;
}

/** Full-precision text dump of every CoreTiming field. */
std::string
dumpTiming(const core::CoreTiming &timing)
{
    std::string out;
    append(out, "clockPeriod", timing.clockPeriod);
    append(out, "frequency", timing.frequency);
    append(out, "area", timing.area);
    append(out, "critical", static_cast<int>(timing.critical));
    append(out, "complexAluStages", timing.complexAluStages);
    for (const core::RegionTiming &r : timing.regions) {
        out += std::string("region ") + arch::toString(r.region) + "\n";
        append(out, "stages", r.stages);
        append(out, "clockPeriod", r.clockPeriod);
        append(out, "area", r.area);
        append(out, "cells", static_cast<double>(r.cells));
    }
    return out;
}

TEST(ParallelDeterminism, NldmCharacterizationByteIdentical)
{
    // 2x3 grid: six points per arc, so the 8-job fan-out has idle
    // workers and an uneven split. Uncached, so the 8-job run computes
    // every point instead of reading back what the serial run stored.
    liberty::CharacterizerConfig mini;
    mini.slewAxis = {4e-6, 64e-6};
    mini.loadMultipliers = {0.5, 2.0, 6.0};
    cache::EnabledOverride off(false);

    const auto characterize = [&mini](int jobs_count) {
        parallel::JobsOverride pin(jobs_count);
        liberty::Characterizer chr(cells::CellFactory{}, mini);
        return dumpCell(chr.characterizeCombinational("nand2")) +
               dumpCell(chr.characterizeCombinational("inv"));
    };

    cache::ResultCache::instance().clear();
    const std::string serial = characterize(1);
    const std::string parallel8 = characterize(8);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel8);
    EXPECT_EQ(cache::ResultCache::instance().size(), 0u);
}

TEST(ParallelDeterminism, SynthesizersOfTwoStaSetupsShareBlocks)
{
    // A wires-on and a wires-off synthesizer time the fig14 grid
    // (fe 1-6 x be 3-7) side by side, each point asked of both in
    // consecutive tasks. Both read their blocks from the process-wide
    // table, so while it is cold the tasks of one synthesizer wait on
    // builds started by the other's.
    const liberty::CellLibrary silicon =
        liberty::makeSiliconLibrary();
    sta::StaConfig no_wire;
    no_wire.wireEnabled = false;
    std::vector<arch::CoreConfig> grid;
    for (int be = 3; be <= 7; ++be) {
        for (int fe = 1; fe <= 6; ++fe) {
            arch::CoreConfig config = arch::baselineConfig();
            config.fetchWidth = fe;
            config.aluPipes = be - config.memPipes - config.branchPipes;
            grid.push_back(config);
        }
    }

    // Entry 2 * i is point i wires on, 2 * i + 1 wires off.
    const auto concurrent = [&](int jobs_count) {
        parallel::JobsOverride pin(jobs_count);
        core::CoreSynthesizer wired(silicon);
        core::CoreSynthesizer unwired(silicon, no_wire);
        std::vector<std::string> out(2 * grid.size());
        parallel::parallelFor(out.size(), [&](std::size_t k) {
            core::CoreSynthesizer &synth = k % 2 ? unwired : wired;
            out[k] = dumpTiming(synth.synthesize(grid[k / 2]));
        });
        return out;
    };
    const std::vector<std::string> at_4 = concurrent(4);

    core::CoreSynthesizer wired(silicon);
    core::CoreSynthesizer unwired(silicon, no_wire);
    std::vector<std::string> serial;
    for (const arch::CoreConfig &config : grid) {
        serial.push_back(dumpTiming(wired.synthesize(config)));
        serial.push_back(dumpTiming(unwired.synthesize(config)));
    }
    EXPECT_NE(serial[0], serial[1]) << "wires must move the timing";
    EXPECT_EQ(at_4, serial);
    EXPECT_EQ(concurrent(1), serial);
}

TEST(ParallelDeterminism, ExplorerSweepByteIdentical)
{
    const liberty::CellLibrary silicon =
        liberty::makeSiliconLibrary();

    // Sweeps fetch widths 1..fe_max x back-end widths 3..4. Points
    // start out of grid order, so each must still land in its slot.
    const auto sweep = [&silicon](int jobs_count, int fe_max) {
        parallel::JobsOverride pin(jobs_count);
        // Uncached, so the parallel sweep computes every point instead
        // of reading back what the serial sweep stored.
        cache::EnabledOverride off(false);
        core::ExplorerConfig config;
        config.instructions = 2000;
        core::ArchExplorer explorer(silicon, config);
        const auto grid = explorer.widthSweep(1, fe_max, 3, 4);
        std::string out;
        EXPECT_EQ(grid.points.size(), 2u);
        for (std::size_t be_i = 0; be_i < grid.points.size(); ++be_i) {
            EXPECT_EQ(grid.points[be_i].size(),
                      static_cast<std::size_t>(fe_max));
            for (std::size_t fe_i = 0; fe_i < grid.points[be_i].size();
                 ++fe_i) {
                const auto &point = grid.points[be_i][fe_i];
                EXPECT_EQ(point.config.fetchWidth,
                          1 + static_cast<int>(fe_i));
                EXPECT_EQ(point.config.backendWidth(),
                          3 + static_cast<int>(be_i));
                out += dumpPoint(point);
            }
        }
        return out;
    };

    const std::string serial = sweep(1, 2);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, sweep(8, 2));
    // Non-square: 3 fetch widths x 2 back-end widths.
    const std::string serial_3x2 = sweep(1, 3);
    EXPECT_FALSE(serial_3x2.empty());
    EXPECT_EQ(serial_3x2, sweep(4, 3));
}

TEST(ParallelDeterminism, SharedSynthesizerMatchesFreshSerial)
{
    // One synthesizer hit from 8 jobs over a grid whose block keys
    // repeat (fe 1-3 x be 3-5, each point twice), so tasks race to
    // compute the same memo entries and wait on each other's.
    const liberty::CellLibrary silicon =
        liberty::makeSiliconLibrary();
    std::vector<arch::CoreConfig> grid;
    for (int pass = 0; pass < 2; ++pass) {
        for (int be = 3; be <= 5; ++be) {
            for (int fe = 1; fe <= 3; ++fe) {
                arch::CoreConfig config = arch::baselineConfig();
                config.fetchWidth = fe;
                config.aluPipes =
                    be - config.memPipes - config.branchPipes;
                grid.push_back(config);
            }
        }
    }

    std::vector<std::string> shared(grid.size());
    {
        parallel::JobsOverride pin(8);
        core::CoreSynthesizer synth(silicon);
        parallel::parallelFor(grid.size(), [&](std::size_t i) {
            shared[i] = dumpTiming(synth.synthesize(grid[i]));
        });
    }

    const std::size_t distinct = grid.size() / 2;
    for (std::size_t i = 0; i < distinct; ++i) {
        core::CoreSynthesizer fresh(silicon);
        const std::string expected =
            dumpTiming(fresh.synthesize(grid[i]));
        EXPECT_EQ(shared[i], expected) << "point " << i;
        EXPECT_EQ(shared[i + distinct], expected) << "point " << i;
    }
}

TEST(ParallelDeterminism, IpcFanOutByteIdentical)
{
    const liberty::CellLibrary silicon =
        liberty::makeSiliconLibrary();

    const auto measure = [&silicon](int jobs_count) {
        parallel::JobsOverride pin(jobs_count);
        core::ExplorerConfig config;
        config.instructions = 5000;
        core::ArchExplorer explorer(silicon, config);
        std::string out;
        append(out, "ipc",
               explorer.measureIpc(arch::baselineConfig()));
        return out;
    };

    EXPECT_EQ(measure(1), measure(8));
}

} // namespace
} // namespace otft
