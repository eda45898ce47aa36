/** @file Unit tests for process variation sampling. */

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "device/variation.hpp"

namespace otft::device {
namespace {

TEST(Variation, VtSpreadMatchesPublishedBand)
{
    // Paper: VT spread within 0.5 V across a sample (+/- 2 sigma).
    VariationModel model;
    StreamRng rng(1, "vt-band");
    const Level61Params nominal;
    std::vector<double> vts;
    for (int i = 0; i < 4000; ++i)
        vts.push_back(model.sample(nominal, rng).vt0);
    double sum = 0.0, sq = 0.0;
    for (double v : vts) {
        sum += v;
        sq += v * v;
    }
    const double mean = sum / vts.size();
    const double sigma = std::sqrt(sq / vts.size() - mean * mean);
    EXPECT_NEAR(mean, nominal.vt0, 0.02);
    EXPECT_NEAR(4.0 * sigma, 0.5, 0.05);
}

TEST(Variation, MobilityLogNormalAroundNominal)
{
    VariationModel model;
    StreamRng rng(2, "mobility");
    const Level61Params nominal;
    double log_sum = 0.0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        const auto p = model.sample(nominal, rng);
        EXPECT_GT(p.u0, 0.0);
        log_sum += std::log(p.u0 / nominal.u0);
    }
    EXPECT_NEAR(log_sum / n, 0.0, 0.02);
}

TEST(Variation, LeakageStaysPositive)
{
    VariationModel model;
    StreamRng rng(5, "leakage");
    const Level61Params nominal;
    for (int i = 0; i < 1000; ++i)
        EXPECT_GT(model.sample(nominal, rng).iOff, 0.0);
}

TEST(Variation, LargeSigmaDrawsClampToPhysicalRanges)
{
    // Regression: before the model-valid clamps, a 5-sigma config
    // produced negative-headroom VT shifts and mobility multipliers
    // of 100x+ that the circuit solver simulated as garbage (arcs
    // that never switch). Draws must stay inside the clamp bands no
    // matter how wide the configured distribution is.
    VariationConfig wild;
    wild.vtSigma = 5.0;           // volts — absurdly wide on purpose
    wild.mobilityLnSigma = 5.0;
    wild.leakageDecadeSigma = 5.0;
    const VariationModel model(wild);
    const Level61Params nominal;
    StreamRng rng(17, "clamp-regression");
    for (int i = 0; i < 5000; ++i) {
        const auto p = model.sample(nominal, rng);
        EXPECT_LE(std::abs(p.vt0 - nominal.vt0), wild.vtShiftMax);
        EXPECT_GE(p.u0, nominal.u0 * wild.mobilityFactorMin);
        EXPECT_LE(p.u0, nominal.u0 * wild.mobilityFactorMax);
        EXPECT_GT(p.iOff, 0.0);
        const double decades = std::log10(p.iOff / nominal.iOff);
        EXPECT_LE(std::abs(decades), wild.leakageDecadeMax + 1e-9);
    }
}

TEST(Variation, DefaultSigmasRarelyTouchTheClamps)
{
    // The clamps are a safety net, not part of the distribution: at
    // the published widths they must engage only for > 5-sigma draws,
    // so the historical statistics are unchanged.
    VariationModel model;
    const Level61Params nominal;
    StreamRng rng(18, "clamp-tail");
    int clamped = 0;
    const auto &cfg = model.config();
    for (int i = 0; i < 20000; ++i) {
        const auto p = model.sample(nominal, rng);
        if (std::abs(p.vt0 - nominal.vt0) >= cfg.vtShiftMax - 1e-12 ||
            p.u0 <= nominal.u0 * cfg.mobilityFactorMin * (1 + 1e-12) ||
            p.u0 >= nominal.u0 * cfg.mobilityFactorMax * (1 - 1e-12))
            ++clamped;
    }
    EXPECT_EQ(clamped, 0);
}

TEST(Variation, DieComponentShiftsEveryDeviceTogether)
{
    VariationConfig config;
    config.dieVtSigma = 0.25;
    config.dieMobilityLnSigma = 0.15;
    config.vtSigma = 0.0; // isolate the die component
    config.mobilityLnSigma = 0.0;
    config.leakageDecadeSigma = 0.0;
    const VariationModel model(config);
    const Level61Params nominal;

    StreamRng die_rng = StreamRng(5).substream("die");
    const DieVariation die = model.sampleDie(die_rng);
    EXPECT_NE(die.dVt, 0.0);

    StreamRng dev_a = StreamRng(5).substream("cell/inv");
    StreamRng dev_b = StreamRng(5).substream("cell/nand2");
    const auto pa = model.sample(nominal, die, dev_a);
    const auto pb = model.sample(nominal, die, dev_b);
    // Zero per-device sigma: both devices land exactly on the die
    // shift.
    EXPECT_DOUBLE_EQ(pa.vt0, pb.vt0);
    EXPECT_DOUBLE_EQ(pa.u0, pb.u0);
    EXPECT_DOUBLE_EQ(pa.vt0 - nominal.vt0, die.dVt);
}

TEST(Variation, StreamRngSamplingIsOrderIndependent)
{
    // Draws come in a fixed (vt, mobility, leakage) order from an
    // explicit stream — two streams built from the same (seed, path)
    // must produce identical sequences of parameter sets even when
    // another generator has been used for other draws in between.
    const VariationModel model;
    const Level61Params nominal;
    StreamRng root(99);
    StreamRng a = root.substream("mc/sample/4");
    StreamRng scratch = root.substream("other");
    scratch.normal();
    StreamRng b = root.substream("mc/sample/4");
    for (int i = 0; i < 16; ++i) {
        const auto pa = model.sample(nominal, a);
        scratch.normal();
        const auto pb = model.sample(nominal, b);
        EXPECT_DOUBLE_EQ(pa.vt0, pb.vt0);
        EXPECT_DOUBLE_EQ(pa.u0, pb.u0);
        EXPECT_DOUBLE_EQ(pa.iOff, pb.iOff);
    }
}

} // namespace
} // namespace otft::device
