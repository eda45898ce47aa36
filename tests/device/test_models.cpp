/** @file Unit tests for the transistor models. */

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "device/level1_model.hpp"
#include "device/level61_model.hpp"
#include "device/pentacene.hpp"

namespace otft::device {
namespace {

Level1Model
makeLevel1()
{
    return Level1Model(Polarity::PType, pentaceneGeometry(),
                       Level1Params{});
}

TEST(Level1Model, OffBelowThreshold)
{
    const auto m = makeLevel1();
    // p-type: conduction needs vgs < -vt; vgs = 0 must be off.
    EXPECT_DOUBLE_EQ(m.drainCurrent(0.0, -1.0), 0.0);
    EXPECT_DOUBLE_EQ(m.drainCurrent(2.0, -1.0), 0.0);
}

TEST(Level1Model, PTypeSignConvention)
{
    const auto m = makeLevel1();
    // On device: negative vgs, negative vds -> current out of drain.
    const double id = m.drainCurrent(-5.0, -1.0);
    EXPECT_LT(id, 0.0);
}

TEST(Level1Model, SaturationIndependentOfVds)
{
    const auto m = makeLevel1();
    const double i1 = m.drainCurrent(-5.0, -4.0);
    const double i2 = m.drainCurrent(-5.0, -8.0);
    // Only channel-length modulation separates them.
    EXPECT_NEAR(i1 / i2, 1.0, 0.06);
}

TEST(Level1Model, TriodeQuadraticShape)
{
    Level1Params p;
    p.lambda = 0.0;
    const Level1Model m(Polarity::PType, pentaceneGeometry(), p);
    // In deep triode, current ~ vov * vds.
    const double i1 = std::abs(m.drainCurrent(-6.0, -0.1));
    const double i2 = std::abs(m.drainCurrent(-6.0, -0.2));
    EXPECT_NEAR(i2 / i1, 2.0, 0.05);
}

TEST(Level61Model, LeakageFloorWhenOff)
{
    const auto m = makePentaceneGolden();
    const double id = std::abs(m->drainCurrent(8.0, -1.0));
    // Far below threshold: within ~2x of the leakage floor.
    EXPECT_LT(id, 3.0 * m->params().iOff);
    EXPECT_GT(id, 0.0);
}

TEST(Level61Model, SubthresholdSlopeIsExponential)
{
    const auto m = makePentaceneGolden();
    // Subthreshold near the onset at |VDS| = 1 V: one volt of gate
    // drive multiplies current by 10^(1/SS)-ish. (Deeper below
    // threshold the leakage floor takes over — the 1e6 on/off ratio
    // only leaves ~2 decades of clean exponential.)
    const double i1 = std::abs(m->drainCurrent(0.5, -1.0));
    const double i2 = std::abs(m->drainCurrent(-0.5, -1.0));
    const double decades = std::log10(i2 / i1);
    EXPECT_GT(decades, 1.0);
    EXPECT_LT(decades, 4.5);
}

TEST(Level61Model, SourceDrainSymmetry)
{
    const auto m = makePentaceneGolden();
    // id(vgs, vds) == -id(vgs - vds, -vds) must hold by construction.
    for (double vgs : {-6.0, -3.0, 0.0, 2.0}) {
        for (double vds : {-5.0, -1.0, 1.0, 5.0}) {
            const double a = m->drainCurrent(vgs, vds);
            const double b = -m->drainCurrent(vgs - vds, -vds);
            EXPECT_NEAR(a, b, std::abs(a) * 1e-9 + 1e-18)
                << "vgs=" << vgs << " vds=" << vds;
        }
    }
}

TEST(Level61Model, ContinuityAcrossThreshold)
{
    const auto m = makePentaceneGolden();
    // No jumps: current is monotone in |vgs| through the threshold.
    double prev = std::abs(m->drainCurrent(4.0, -1.0));
    for (double vgs = 3.9; vgs >= -8.0; vgs -= 0.1) {
        const double cur = std::abs(m->drainCurrent(vgs, -1.0));
        EXPECT_GE(cur, prev * 0.999)
            << "current not monotone at vgs=" << vgs;
        prev = cur;
    }
}

TEST(Level61Model, DiblShiftsThreshold)
{
    const auto m = makePentaceneGolden();
    const double vt1 = m->effectiveVt(1.0);
    const double vt5 = m->effectiveVt(5.0);
    const double vt20 = m->effectiveVt(20.0);
    EXPECT_GT(vt1, vt5);
    // Clamp: no further shift past vdsRef + diblVmax.
    EXPECT_NEAR(vt20, m->effectiveVt(10.0), 1e-12);
}

TEST(Level61Model, CurrentScalesWithAspectRatio)
{
    Geometry narrow = pentaceneGeometry();
    narrow.w = 100e-6;
    const Level61Model wide(Polarity::PType, pentaceneGeometry(),
                            Level61Params{});
    const Level61Model thin(Polarity::PType, narrow, Level61Params{});
    const double iw = std::abs(wide.drainCurrent(-8.0, -5.0));
    const double in = std::abs(thin.drainCurrent(-8.0, -5.0));
    EXPECT_NEAR(iw / in, 10.0, 0.01);
}

/** A level-61 current in the knee's former pow form. */
struct PowFormCurrent
{
    double id;
    /** pow(ratio, 4) overflowed to infinity. */
    bool overflowed;
};

/**
 * The level-61 drain current with the saturation knee written as it
 * was before its exponent was fixed at 4: q = 1 + pow(ratio, 4) and
 * vdse = vds / pow(q, 1 / 4). Everything else, the map to the forward
 * frame included, repeats the model.
 */
PowFormCurrent
powFormCurrent(const Level61Model &m, double vgs, double vds)
{
    const Level61Params &p = m.params();
    double sign = 1.0;
    if (m.polarity() == Polarity::PType) {
        vgs = -vgs;
        vds = -vds;
        sign = -1.0;
    }
    if (vds < 0.0) {
        vgs -= vds;
        vds = -vds;
        sign = -sign;
    }
    const double s = p.ss * (2.0 + p.gamma) / 2.302585092994046;
    const double x = vgs - m.effectiveVt(vds);
    const double z = x / s;
    const double vov = z > 40.0    ? x
                       : z < -40.0 ? s * std::exp(z)
                                   : s * std::log1p(std::exp(z));
    const double mobility = p.u0 * std::pow(vov / p.vaa, p.gamma);
    const double ratio = vds / (p.alphaSat * vov);
    const double r4 = std::pow(ratio, 4.0);
    const double q = 1.0 + r4;
    const double vdse = vds / std::pow(q, 1.0 / 4.0);
    const double gch =
        m.geometry().aspect() * mobility * m.geometry().ci * vov;
    const double id = gch * vdse * (1.0 + p.lambda * vds) +
                      p.iOff * std::tanh(vds);
    return {sign * id, std::isinf(r4)};
}

TEST(Level61Model, KneeMatchesPowForm)
{
    // The two-sqrt knee against the pow form it replaced, over a
    // +/-15 V grid for both polarities plus gate biases 50-150 V into
    // cutoff, where vov is so small that (vds / vsat)^4 overflows
    // (666 of the 30,734 biases). Measured maximum relative difference
    // in id: 5.7e-16.
    const Level61Model models[] = {
        {Polarity::PType, pentaceneGeometry(), Level61Params{}},
        {Polarity::NType, pentaceneGeometry(), Level61Params{}},
    };
    std::vector<double> gates;
    for (int i = 0; i <= 120; ++i)
        gates.push_back(-15.0 + 0.25 * i);
    for (double deep : {50.0, 100.0, 150.0}) {
        gates.push_back(deep);
        gates.push_back(-deep);
    }
    int overflowed = 0;
    for (const Level61Model &m : models) {
        for (const double vgs : gates) {
            for (int j = 0; j <= 120; ++j) {
                const double vds = -15.0 + 0.25 * j;
                const PowFormCurrent ref = powFormCurrent(m, vgs, vds);
                const auto e = m.evaluate(vgs, vds);
                ASSERT_TRUE(std::isfinite(e.id) && std::isfinite(e.gm) &&
                            std::isfinite(e.gds))
                    << toString(m.polarity()) << " vgs=" << vgs
                    << " vds=" << vds;
                EXPECT_EQ(m.drainCurrent(vgs, vds), e.id);
                const double diff = std::abs(e.id - ref.id);
                EXPECT_LE(diff, 1e-12 * std::abs(ref.id))
                    << toString(m.polarity()) << " vgs=" << vgs
                    << " vds=" << vds;
                overflowed += ref.overflowed;
            }
        }
    }
    EXPECT_GT(overflowed, 0);
}

TEST(GmGds, FiniteDifferencesArePositiveOn)
{
    const auto m = makePentaceneGolden();
    // At an on-state bias in the forward frame the derivatives follow
    // the mirrored sign convention; their magnitudes must be sane.
    const double gm = m->gm(-6.0, -3.0);
    EXPECT_GT(std::abs(gm), 1e-9);
}

/**
 * Derivative-consistency oracle: evaluate()'s closed-form gm/gds
 * against a fourth-order five-point stencil of drainCurrent() with a
 * 1 mV step, and its id against drainCurrent() bit for bit: chord
 * iterations take the current alone, so both paths must see the same
 * number.
 *
 * Tolerances: |got - ref| <= 1e-6 * |ref| + 1e-10 * |id| / V. The
 * stencil's truncation error at these biases is below 1e-7 relative
 * (the smallest feature scale is the ~0.23 V subthreshold softplus
 * width). The absolute term covers the stencil's round-off, about
 * 2 eps * |id| / step ~ 4e-13 * |id| / V; it is what lets gm in the
 * leakage floor (~0) pass, where the channel term is tens of decades
 * below the leak current. A factor-of-two slip in either derivative
 * fails every on and subthreshold bias by a wide margin.
 */
void
expectDerivativesConsistent(const TransistorModel &m, double vgs,
                            double vds)
{
    constexpr double step = 1e-3;
    const auto stencil = [](const auto &f) {
        return (f(-2.0 * step) - 8.0 * f(-step) + 8.0 * f(step) -
                f(2.0 * step)) /
               (12.0 * step);
    };
    const double ref_gm = stencil(
        [&](double d) { return m.drainCurrent(vgs + d, vds); });
    const double ref_gds = stencil(
        [&](double d) { return m.drainCurrent(vgs, vds + d); });
    const double id = m.drainCurrent(vgs, vds);
    const double floor = 1e-10 * std::abs(id);
    const TransistorModel::Evaluation e = m.evaluate(vgs, vds);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(e.id),
              std::bit_cast<std::uint64_t>(id))
        << m.name() << " id at vgs=" << vgs << " vds=" << vds;
    EXPECT_LE(std::abs(e.gm - ref_gm), 1e-6 * std::abs(ref_gm) + floor)
        << m.name() << " gm at vgs=" << vgs << " vds=" << vds;
    EXPECT_LE(std::abs(e.gds - ref_gds),
              1e-6 * std::abs(ref_gds) + floor)
        << m.name() << " gds at vgs=" << vgs << " vds=" << vds;
    EXPECT_EQ(m.gm(vgs, vds), e.gm);
    EXPECT_EQ(m.gds(vgs, vds), e.gds);
}

TEST(GmGds, Level1NTypeMatchesStencil)
{
    // vt = 1.3 V. Every bias sits >= 10 mV from vds = 0, from the
    // threshold (vov = 0) and from the triode/saturation boundary
    // (vds = vov), in both the vgs and the vds direction.
    const Level1Model m(Polarity::NType, pentaceneGeometry(),
                        Level1Params{});
    const double biases[][2] = {
        {5.0, 1.0},   // on, triode
        {3.0, 4.0},   // on, saturation
        {6.0, 0.05},  // on, near the origin
        {4.0, -1.5},  // on, source/drain exchanged
        {0.5, 2.0},   // off: gm = gds = 0 exactly
    };
    for (const auto &b : biases)
        expectDerivativesConsistent(m, b[0], b[1]);
}

TEST(GmGds, Level1PTypeMatchesStencil)
{
    // The native p-type frame, both orientations. Every bias sits
    // >= 10 mV from vds = 0, the threshold and the triode/saturation
    // boundary.
    const auto m = makeLevel1();
    const double biases[][2] = {
        {-5.0, -1.0},  // on, triode
        {-3.0, -4.0},  // on, saturation
        {-8.0, -0.02}, // on, near the origin
        {-4.0, 1.5},   // on, source/drain exchanged, saturation
        {-7.0, 0.5},   // on, source/drain exchanged, triode
        {-0.5, -2.0},  // off
        {1.0, 3.0},    // off, source/drain exchanged
    };
    for (const auto &b : biases)
        expectDerivativesConsistent(m, b[0], b[1]);
}

TEST(GmGds, Level61PTypeMatchesStencil)
{
    // Golden pentacene, native p-type frame. The effectiveVt clamp
    // kinks sit at |vds| = vdsRef = 1 V and vdsRef + diblVmax = 10 V;
    // every |vds| here is >= 10 mV from them and from 0.
    const auto m = makePentaceneGolden();
    const double biases[][2] = {
        {-6.0, -3.0},  // on, saturation
        {-8.0, -0.5},  // on, triode
        {-6.0, -0.05}, // on, near the origin
        {-5.0, -12.0}, // on, past the DIBL clamp
        {-6.0, 2.0},   // on, source/drain exchanged
        {0.0, -0.5},   // subthreshold
        {0.5, -2.0},   // subthreshold, DIBL-shifted
        {-1.0, -1.5},  // threshold onset
        {6.0, -1.5},   // leakage floor
        {8.0, -5.0},   // leakage floor, deep off
        {3.0, 2.0},    // leakage, source/drain exchanged
    };
    for (const auto &b : biases)
        expectDerivativesConsistent(*m, b[0], b[1]);
}

TEST(GmGds, Level61PTypeGridMatchesStencil)
{
    // A +/-20 V grid over both orientations and every region. Only
    // biases within 10 mV of a kink in |vds| are skipped: the origin
    // and the two effectiveVt clamp corners (vdsRef = 1 V and
    // vdsRef + diblVmax = 10 V), where the current has no derivative.
    const auto m = makePentaceneGolden();
    const auto near_kink = [](double vds) {
        for (double kink : {0.0, 1.0, 10.0})
            if (std::abs(std::abs(vds) - kink) < 10e-3)
                return true;
        return false;
    };
    int checked = 0;
    for (int i = 0; i <= 160; ++i) {
        const double vgs = -20.0 + 0.25 * i;
        for (int j = 0; j <= 160; ++j) {
            const double vds = -20.0 + 0.25 * j;
            if (near_kink(vds))
                continue;
            expectDerivativesConsistent(*m, vgs, vds);
            ++checked;
        }
    }
    EXPECT_EQ(checked, 161 * 156);
}

/** Parameterized sweep: monotonicity of |ID| in |VDS| (both models). */
class VdsMonotonic : public ::testing::TestWithParam<double>
{
};

TEST_P(VdsMonotonic, CurrentNonDecreasingInVds)
{
    const auto m = makePentaceneGolden();
    const double vgs = GetParam();
    double prev = 0.0;
    for (double vds = -0.1; vds >= -10.0; vds -= 0.1) {
        const double cur = std::abs(m->drainCurrent(vgs, vds));
        EXPECT_GE(cur, prev * 0.9999) << "vgs=" << vgs
                                      << " vds=" << vds;
        prev = cur;
    }
}

INSTANTIATE_TEST_SUITE_P(GateBiases, VdsMonotonic,
                         ::testing::Values(-8.0, -5.0, -3.0, -1.0,
                                           0.0));

} // namespace
} // namespace otft::device
