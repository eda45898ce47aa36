/**
 * @file
 * Unit tests for the Newton kernel reuse layer: the split
 * factor/solve LU, chord iteration correctness, the slow-convergence
 * Jacobian refresh and singular-Jacobian recovery.
 */

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>

#include <gtest/gtest.h>

#include "circuit/dc.hpp"
#include "device/pentacene.hpp"
#include "util/stats_registry.hpp"

namespace otft::circuit {
namespace {

Matrix
testMatrix()
{
    // Diagonally non-dominant with a zero leading pivot, so partial
    // pivoting must actually permute rows.
    Matrix a(4);
    const double rows[4][4] = {
        {0.0, 2.0, -1.0, 3.0},
        {4.0, -1.0, 0.5, 1.0},
        {-2.0, 3.5, 2.0, -1.0},
        {1.0, 0.0, -3.0, 2.5},
    };
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 4; ++c)
            a.at(r, c) = rows[r][c];
    return a;
}

TEST(LuFactors, MatchesKnownSolution)
{
    const Matrix a = testMatrix();
    // b = A * reference, so the solve must recover `reference`.
    const std::vector<double> reference = {0.5, -1.0, 2.0, 1.5};
    std::vector<double> b(4, 0.0);
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 4; ++c)
            b[r] += a.at(r, c) * reference[c];

    LuFactors lu;
    ASSERT_TRUE(lu.factor(a));
    EXPECT_TRUE(lu.valid());
    EXPECT_EQ(lu.size(), 4u);
    lu.solve(b);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_NEAR(b[i], reference[i], 1e-12) << "component " << i;
}

TEST(LuFactors, OneFactorizationServesManyRhs)
{
    const Matrix a = testMatrix();
    LuFactors lu;
    ASSERT_TRUE(lu.factor(a));

    for (int rhs = 0; rhs < 3; ++rhs) {
        std::vector<double> b = {1.0 + rhs, -rhs * 2.0, 0.25, 3.0};
        // A fresh factorization per RHS is the reference.
        LuFactors fresh;
        ASSERT_TRUE(fresh.factor(a));
        std::vector<double> reference = b;
        fresh.solve(reference);
        lu.solve(b);
        for (std::size_t i = 0; i < 4; ++i)
            EXPECT_NEAR(b[i], reference[i], 1e-12)
                << "rhs " << rhs << " component " << i;
    }
}

TEST(LuFactors, ResidualOfSolutionIsTiny)
{
    const Matrix a = testMatrix();
    std::vector<double> x = {2.0, -1.0, 0.0, 5.5};
    LuFactors lu;
    ASSERT_TRUE(lu.factor(a));
    lu.solve(x);
    // Check A x == b by recomputing the product.
    const std::vector<double> b = {2.0, -1.0, 0.0, 5.5};
    for (std::size_t r = 0; r < 4; ++r) {
        double s = 0.0;
        for (std::size_t c = 0; c < 4; ++c)
            s += a.at(r, c) * x[c];
        EXPECT_NEAR(s, b[r], 1e-12);
    }
}

TEST(LuFactors, SingularMatrixFailsAndInvalidates)
{
    Matrix a(3);
    // An all-zero row keeps the matrix exactly singular in floating
    // point (elimination leaves an exactly-zero pivot, no rounding).
    const double rows[3][3] = {
        {1.0, 2.0, 3.0}, {0.0, 0.0, 0.0}, {2.0, 1.0, 1.0}};
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            a.at(r, c) = rows[r][c];

    LuFactors lu;
    EXPECT_FALSE(lu.factor(a));
    EXPECT_FALSE(lu.valid());

    // A later successful factor() must recover.
    ASSERT_TRUE(lu.factor(testMatrix()));
    EXPECT_TRUE(lu.valid());
    lu.invalidate();
    EXPECT_FALSE(lu.valid());
}

/** A strongly nonlinear one-FET testbench (diode-connected OTFT). */
Circuit
diodeCircuit()
{
    Circuit ckt;
    const NodeId supply = ckt.addNode("vneg");
    const NodeId mid = ckt.addNode("mid");
    ckt.addVoltageSource(supply, Circuit::ground, -10.0);
    ckt.addResistor(Circuit::ground, mid, 1e5);
    ckt.addFet(device::makePentaceneGolden(), supply, supply, mid);
    return ckt;
}

TEST(ChordNewton, MatchesFullNewtonWithinTolerance)
{
    Circuit chord_ckt = diodeCircuit();
    Circuit full_ckt = diodeCircuit();

    NewtonConfig chord_cfg;
    chord_cfg.chord = true;
    NewtonConfig full_cfg;
    full_cfg.chord = false;

    const auto chord_sol =
        DcAnalysis(chord_ckt, chord_cfg).operatingPoint();
    const auto full_sol =
        DcAnalysis(full_ckt, full_cfg).operatingPoint();
    ASSERT_EQ(chord_sol.size(), full_sol.size());
    // Both iterations share the fixed point F(x) = 0; they agree to
    // within a few convergence tolerances.
    for (std::size_t i = 0; i < chord_sol.size(); ++i)
        EXPECT_NEAR(chord_sol[i], full_sol[i],
                    10.0 * chord_cfg.tolerance)
            << "unknown " << i;
}

TEST(ChordNewton, RefreshTriggersOnStalledConvergence)
{
    // chordRefreshRatio = 0 makes every chord step look "stalled"
    // (max_update > 0), so the refresh path must fire; with a huge
    // ratio the frozen Jacobian is never refreshed. Both must still
    // converge to the same answer on this mildly nonlinear circuit.
    stats::Counter &refreshes = stats::counter(
        "circuit.newton.jacobian_refreshes",
        "chord iterations that triggered a Jacobian rebuild "
        "(slow convergence)");
    stats::Counter &chord_iters = stats::counter(
        "circuit.newton.chord_iterations",
        "iterations served by a reused (chord) Jacobian");

    Circuit eager_ckt = diodeCircuit();
    NewtonConfig eager;
    eager.chordRefreshRatio = 0.0;
    const std::uint64_t refreshes_before = refreshes.value();
    const auto eager_sol =
        DcAnalysis(eager_ckt, eager).operatingPoint();
    EXPECT_GT(refreshes.value(), refreshes_before);

    Circuit frozen_ckt = diodeCircuit();
    NewtonConfig frozen;
    frozen.chordRefreshRatio = 1e30;
    frozen.maxIterations = 2000; // pure chord converges linearly
    const std::uint64_t chord_before = chord_iters.value();
    const auto frozen_sol =
        DcAnalysis(frozen_ckt, frozen).operatingPoint();
    EXPECT_GT(chord_iters.value(), chord_before);

    ASSERT_EQ(eager_sol.size(), frozen_sol.size());
    for (std::size_t i = 0; i < eager_sol.size(); ++i)
        EXPECT_NEAR(eager_sol[i], frozen_sol[i], 1e-5)
            << "unknown " << i;
}

TEST(ChordNewton, SingularJacobianRecoversViaGminBoost)
{
    // A node attached only through a capacitor has an all-zero DC
    // Jacobian row once gmin is off. The boost must rescue the solve;
    // disabling the boost must reproduce the historical failure.
    const auto build = [] {
        Circuit ckt;
        const NodeId driven = ckt.addNode("driven");
        const NodeId floating = ckt.addNode("floating");
        ckt.addVoltageSource(driven, Circuit::ground, 1.0);
        ckt.addCapacitor(driven, floating, 1e-12);
        return ckt;
    };

    stats::Counter &recoveries = stats::counter(
        "circuit.newton.singular_recoveries",
        "singular Jacobians recovered via a diagonal gmin boost");

    Circuit ckt = build();
    NewtonConfig cfg;
    cfg.gmin = 0.0;
    Mna mna(ckt, cfg);
    Solution x = mna.zeroSolution();
    const std::uint64_t before = recoveries.value();
    EXPECT_TRUE(mna.solveNewton(x, 0.0, 1.0, 0.0, nullptr));
    EXPECT_GT(recoveries.value(), before);
    EXPECT_NEAR(mna.nodeVoltage(x, 1), 1.0, 1e-6);

    Circuit bare_ckt = build();
    NewtonConfig no_boost = cfg;
    no_boost.singularGminBoost = 0.0;
    Mna bare(bare_ckt, no_boost);
    Solution y = bare.zeroSolution();
    EXPECT_FALSE(bare.solveNewton(y, 0.0, 1.0, 0.0, nullptr));
}

TEST(ChordNewton, ReusedWorkspaceMatchesFreshSolver)
{
    // An Mna reuses its Jacobian, LU factors and vectors across
    // solves. Run DC, three transient steps at different h, a
    // singular-recovery solve and a normal one on one Mna: each must
    // equal a fresh Mna's solve bit for bit, in the same iterations,
    // so nothing of an earlier solve (the recovery's diagonal boost
    // included) leaks into a later one.
    //
    // `hold` reaches ground only through a level-1 FET gated by `in`
    // (exactly zero gm and gds in cutoff) and a capacitor to `out`.
    // With gmin off, a DC solve after `in` falls has an all-zero
    // `hold` column; transient steps stay regular through the
    // capacitor.
    Circuit ckt;
    const NodeId in = ckt.addNode("in");
    const NodeId out = ckt.addNode("out");
    const NodeId hold = ckt.addNode("hold");
    ckt.addVoltageSource(in, Circuit::ground,
                         Pwl::points({0.0, 1e-5, 2e-5}, {5.0, 5.0, 0.0}));
    ckt.addResistor(in, out, 1e4);
    ckt.addCapacitor(out, Circuit::ground, 1e-8);
    ckt.addFet(device::makePentaceneGolden(), out, out, Circuit::ground);
    ckt.addCapacitor(out, hold, 1e-9);
    ckt.addFet(std::make_shared<device::Level1Model>(
                   device::Polarity::NType, device::pentaceneGeometry(),
                   device::Level1Params{}),
               hold, in, Circuit::ground);

    NewtonConfig cfg;
    cfg.gmin = 0.0;

    stats::Counter &iterations = stats::counter(
        "circuit.newton.iterations", "Newton iterations executed");
    stats::Counter &recoveries = stats::counter(
        "circuit.newton.singular_recoveries",
        "singular Jacobians recovered via a diagonal gmin boost");

    Mna reused(ckt, cfg);
    // Solve from `guess` on a fresh Mna and on the reused one; return
    // the reused one's solution after checking that both agree.
    const auto solve = [&](const Solution &guess, double time, double dt,
                           const Solution *x_prev, bool singular) {
        Mna fresh(ckt, cfg);
        Solution expected = guess;
        const std::uint64_t fresh_iters = iterations.value();
        const std::uint64_t fresh_recoveries = recoveries.value();
        EXPECT_TRUE(fresh.solveNewton(expected, time, 1.0, dt, x_prev));
        const std::uint64_t expected_iters =
            iterations.value() - fresh_iters;
        EXPECT_EQ(recoveries.value() > fresh_recoveries, singular);

        Solution x = guess;
        const std::uint64_t reused_iters = iterations.value();
        EXPECT_TRUE(reused.solveNewton(x, time, 1.0, dt, x_prev));
        EXPECT_EQ(iterations.value() - reused_iters, expected_iters);
        EXPECT_EQ(x.size(), expected.size());
        for (std::size_t i = 0; i < x.size(); ++i)
            EXPECT_EQ(std::bit_cast<std::uint64_t>(x[i]),
                      std::bit_cast<std::uint64_t>(expected[i]))
                << "t = " << time << ", unknown " << i;
        return x;
    };

    // Start DC with the gate already high, so no iteration sees the
    // level-1 FET in cutoff.
    Solution guess = reused.zeroSolution();
    guess[static_cast<std::size_t>(in - 1)] = 5.0;
    const Solution x0 = solve(guess, 0.0, 0.0, nullptr, false);
    const Solution x1 = solve(x0, 1e-6, 1e-6, &x0, false);
    const Solution x2 = solve(x1, 6e-6, 5e-6, &x1, false);
    const Solution x3 = solve(x2, 2.6e-5, 2e-5, &x2, false);
    const Solution x4 = solve(x3, 1e-3, 0.0, nullptr, true);
    (void)solve(x4, 1.01e-3, 1e-5, &x4, false);
}

} // namespace
} // namespace otft::circuit
