/**
 * @file
 * Tests for the Monte Carlo statistical library: corner derivation,
 * validation, sampling determinism, and bit-exact serialization.
 *
 * The real characterization fan-out is kept tiny here (two cells, a
 * 2x2 grid, three samples) — the full-roster end-to-end runs live in
 * the mc_smoke lane and the tier-1 determinism gate.
 */

#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "liberty/mc_characterizer.hpp"
#include "liberty/serialize.hpp"
#include "liberty/silicon.hpp"

namespace otft::liberty {
namespace {

TEST(ScaledCorners, SiliconCornersValidateAndDerate)
{
    const CellLibrary silicon = makeSiliconLibrary();
    const StatLibrary stat =
        scaledCorners(silicon, 0.015, "silicon_test");
    EXPECT_TRUE(validateStatLibrary(stat.mean, stat.slow, stat.fast)
                    .empty());
    // 3-sigma corners of a 1.5% sigma: slow = 1.045x, fast = 0.955x.
    const auto &mean_arc = stat.mean.cell("inv").arc(0);
    const auto &slow_arc = stat.slow.cell("inv").arc(0);
    const auto &fast_arc = stat.fast.cell("inv").arc(0);
    const double m = mean_arc.delay[0].values()[0];
    EXPECT_NEAR(slow_arc.delay[0].values()[0], m * 1.045, m * 1e-9);
    EXPECT_NEAR(fast_arc.delay[0].values()[0], m * 0.955, m * 1e-9);
    // Geometry is corner-invariant.
    EXPECT_DOUBLE_EQ(stat.slow.cell("nand2").inputCap,
                     stat.mean.cell("nand2").inputCap);
    EXPECT_DOUBLE_EQ(stat.fast.cell("nand2").area,
                     stat.mean.cell("nand2").area);
}

TEST(ScaledCorners, SigmaTablesAreTheFractionOfTheMean)
{
    const CellLibrary silicon = makeSiliconLibrary();
    for (double fraction : {0.0, 0.015}) {
        const StatLibrary stat = scaledCorners(silicon, fraction);
        ASSERT_EQ(stat.cells.size(), silicon.cellNames().size());
        for (const CellStats &cell : stat.cells)
            EXPECT_NEAR(cell.meanDelaySigmaFraction(), fraction, 1e-12)
                << cell.name;
    }
}

TEST(ScaledCorners, ValidatorCatchesBrokenMonotonicity)
{
    const CellLibrary silicon = makeSiliconLibrary();
    StatLibrary stat = scaledCorners(silicon, 0.015, "broken");
    // Swap slow and fast: every entry now violates slow >= mean.
    std::swap(stat.slow, stat.fast);
    EXPECT_FALSE(validateStatLibrary(stat.mean, stat.slow, stat.fast)
                     .empty());
}

TEST(McCharacterizer, SampledParamsAreDeterministicPerCell)
{
    const McCharacterizer mc{liberty::McConfig{}};
    const auto a = mc.sampleParams(2, "nand2");
    const auto b = mc.sampleParams(2, "nand2");
    EXPECT_DOUBLE_EQ(a.vt0, b.vt0);
    EXPECT_DOUBLE_EQ(a.u0, b.u0);
    EXPECT_DOUBLE_EQ(a.iOff, b.iOff);
    // Different cells on the same die share the die component but not
    // the per-device draw.
    const auto c = mc.sampleParams(2, "inv");
    EXPECT_NE(a.vt0, c.vt0);
    // Different samples differ even for the same cell.
    const auto d = mc.sampleParams(3, "nand2");
    EXPECT_NE(a.vt0, d.vt0);
}

TEST(McCharacterizer, StatLibraryValidatesAndSerializesBitExact)
{
    McConfig config;
    config.samples = 3;
    config.seed = 7;
    config.roster = {"inv", "nand2"};
    config.grid.slewAxis = {8e-6, 32e-6};
    config.grid.loadMultipliers = {1.0, 4.0};
    const StatLibrary stat = McCharacterizer(config).run();

    ASSERT_TRUE(validateStatLibrary(stat.mean, stat.slow, stat.fast)
                    .empty());
    EXPECT_EQ(stat.samples, 3);
    EXPECT_EQ(stat.seed, 7u);
    EXPECT_EQ(stat.cells.size(), 2u);

    // Per-cell sigma summaries exist and are finite.
    for (const CellStats &cell : stat.cells) {
        EXPECT_TRUE(std::isfinite(cell.leakageMean));
        EXPECT_GE(cell.leakageSigma, 0.0);
        const double frac = cell.meanDelaySigmaFraction();
        EXPECT_TRUE(std::isfinite(frac));
        EXPECT_GT(frac, 0.0);
    }

    // Bit-exact round trip of each corner through the text format:
    // write -> read -> write must reproduce the exact bytes, so
    // persisted statistical libraries reload with zero drift.
    for (const CellLibrary *corner :
         {&stat.mean, &stat.slow, &stat.fast}) {
        std::ostringstream first;
        writeLibrary(first, *corner);
        std::istringstream in(first.str());
        const CellLibrary reloaded = readLibrary(in);
        std::ostringstream second;
        writeLibrary(second, reloaded);
        EXPECT_EQ(first.str(), second.str());
        EXPECT_EQ(reloaded.contentHash(), corner->contentHash());
    }
}

} // namespace
} // namespace otft::liberty
