/** @file Unit tests for util/optimize. */

#include <cmath>

#include <gtest/gtest.h>

#include "util/optimize.hpp"

namespace otft {
namespace {

TEST(NelderMead, MinimizesQuadraticBowl)
{
    const auto result = nelderMead(
        [](const std::vector<double> &x) {
            return (x[0] - 3.0) * (x[0] - 3.0) +
                   2.0 * (x[1] + 1.0) * (x[1] + 1.0);
        },
        {0.0, 0.0});
    EXPECT_TRUE(result.converged);
    EXPECT_NEAR(result.x[0], 3.0, 1e-3);
    EXPECT_NEAR(result.x[1], -1.0, 1e-3);
    EXPECT_LT(result.value, 1e-5);
}

TEST(NelderMead, RosenbrockTwoDim)
{
    NelderMeadOptions options;
    options.maxEvals = 20000;
    options.tolerance = 1e-14;
    const auto result = nelderMead(
        [](const std::vector<double> &x) {
            const double a = 1.0 - x[0];
            const double b = x[1] - x[0] * x[0];
            return a * a + 100.0 * b * b;
        },
        {-1.2, 1.0}, options);
    EXPECT_NEAR(result.x[0], 1.0, 1e-2);
    EXPECT_NEAR(result.x[1], 1.0, 2e-2);
}

TEST(NelderMead, RespectsEvaluationBudget)
{
    int evals = 0;
    NelderMeadOptions options;
    options.maxEvals = 57;
    nelderMead(
        [&](const std::vector<double> &x) {
            ++evals;
            return x[0] * x[0];
        },
        {5.0}, options);
    EXPECT_LE(evals, 57 + 2); // small overshoot from shrink step
}

TEST(NelderMead, OneDimensional)
{
    const auto result = nelderMead(
        [](const std::vector<double> &x) {
            return std::cos(x[0]) + 0.01 * x[0] * x[0];
        },
        {2.0});
    // Near pi where cos has its minimum (quadratic term shifts it a
    // little toward zero).
    EXPECT_NEAR(result.x[0], 3.03, 0.1);
}

} // namespace
} // namespace otft
