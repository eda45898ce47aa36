/** @file Unit tests for util/stats. */

#include <gtest/gtest.h>

#include "util/logging.hpp"
#include "util/stats.hpp"

namespace otft {
namespace {

TEST(FitLine, RecoversExactLine)
{
    const std::vector<double> xs = {0.0, 1.0, 2.0, 3.0, 4.0};
    std::vector<double> ys;
    for (double x : xs)
        ys.push_back(2.5 * x - 1.25);
    const LineFit fit = fitLine(xs, ys);
    EXPECT_NEAR(fit.slope, 2.5, 1e-12);
    EXPECT_NEAR(fit.intercept, -1.25, 1e-12);
    EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(FitLine, R2DropsWithNoise)
{
    const std::vector<double> xs = {0, 1, 2, 3, 4, 5, 6, 7};
    const std::vector<double> ys = {0.1, 0.9, 2.2, 2.8, 4.3, 4.7,
                                    6.2, 6.9};
    const LineFit fit = fitLine(xs, ys);
    EXPECT_GT(fit.r2, 0.98);
    EXPECT_LT(fit.r2, 1.0);
    EXPECT_NEAR(fit.slope, 1.0, 0.1);
}

TEST(FitLine, SolveForInvertsEval)
{
    const std::vector<double> xs = {0.0, 10.0};
    const std::vector<double> ys = {5.0, 25.0};
    const LineFit fit = fitLine(xs, ys);
    EXPECT_NEAR(fit.solveFor(fit.eval(3.7)), 3.7, 1e-12);
}

TEST(FitLine, RejectsDegenerateInputs)
{
    EXPECT_THROW(fitLine(std::vector<double>{1.0},
                         std::vector<double>{1.0}),
                 FatalError);
    EXPECT_THROW(fitLine(std::vector<double>{1.0, 1.0},
                         std::vector<double>{1.0, 2.0}),
                 FatalError);
    EXPECT_THROW(fitLine(std::vector<double>{1.0, 2.0},
                         std::vector<double>{1.0}),
                 FatalError);
}

TEST(Mean, SimpleValues)
{
    const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(mean(xs), 2.5);
    EXPECT_THROW(mean(std::vector<double>{}), FatalError);
}

TEST(NormalMath, CdfMatchesKnownValues)
{
    EXPECT_DOUBLE_EQ(normalCdf(0.0), 0.5);
    EXPECT_NEAR(normalCdf(1.0), 0.841344746, 1e-8);
    EXPECT_NEAR(normalCdf(-1.0), 0.158655254, 1e-8);
    EXPECT_NEAR(normalCdf(3.0), 0.998650102, 1e-8);
    EXPECT_NEAR(normalCdf(6.0), 1.0, 1e-9);
}

TEST(NormalMath, QuantileMatchesKnownValues)
{
    EXPECT_NEAR(normalQuantile(0.5), 0.0, 1e-12);
    EXPECT_NEAR(normalQuantile(0.975), 1.959963985, 1e-8);
    EXPECT_NEAR(normalQuantile(0.99), 2.326347874, 1e-8);
    EXPECT_NEAR(normalQuantile(0.001), -3.090232306, 1e-8);
}

TEST(NormalMath, QuantileInvertsCdf)
{
    for (double p : {1e-6, 0.01, 0.1, 0.5, 0.9, 0.99, 1.0 - 1e-6})
        EXPECT_NEAR(normalCdf(normalQuantile(p)), p, 1e-9);
    for (double z : {-4.0, -1.5, 0.0, 0.7, 2.5, 4.0})
        EXPECT_NEAR(normalQuantile(normalCdf(z)), z, 1e-7);
}

TEST(Interpolate, InsideAndClamped)
{
    const std::vector<double> xs = {0.0, 1.0, 2.0};
    const std::vector<double> ys = {0.0, 10.0, 40.0};
    EXPECT_DOUBLE_EQ(interpolate(xs, ys, 0.5), 5.0);
    EXPECT_DOUBLE_EQ(interpolate(xs, ys, 1.5), 25.0);
    EXPECT_DOUBLE_EQ(interpolate(xs, ys, -1.0), 0.0);
    EXPECT_DOUBLE_EQ(interpolate(xs, ys, 9.0), 40.0);
}

TEST(FindCrossings, RisingAndFalling)
{
    const std::vector<double> xs = {0, 1, 2, 3, 4};
    const std::vector<double> ys = {0, 2, 0, -2, 2};
    const auto crossings = findCrossings(xs, ys, 1.0);
    ASSERT_EQ(crossings.size(), 3u);
    EXPECT_NEAR(crossings[0], 0.5, 1e-12);
    EXPECT_NEAR(crossings[1], 1.5, 1e-12);
    EXPECT_NEAR(crossings[2], 3.75, 1e-12);
}

TEST(Gradient, LinearFunctionIsConstant)
{
    const auto xs = linspace(0.0, 1.0, 11);
    std::vector<double> ys;
    for (double x : xs)
        ys.push_back(3.0 * x + 1.0);
    for (double g : gradient(xs, ys))
        EXPECT_NEAR(g, 3.0, 1e-9);
}

TEST(Linspace, EndpointsExactAndUniform)
{
    const auto xs = linspace(-1.0, 2.0, 7);
    ASSERT_EQ(xs.size(), 7u);
    EXPECT_DOUBLE_EQ(xs.front(), -1.0);
    EXPECT_DOUBLE_EQ(xs.back(), 2.0);
    for (std::size_t i = 1; i < xs.size(); ++i)
        EXPECT_NEAR(xs[i] - xs[i - 1], 0.5, 1e-12);
    EXPECT_THROW(linspace(0.0, 1.0, 1), FatalError);
}

/** Property sweep: interpolation is exact at every sample point. */
class InterpolateAtSamples : public ::testing::TestWithParam<int>
{
};

TEST_P(InterpolateAtSamples, ExactAtKnots)
{
    const int n = GetParam();
    const auto xs = linspace(0.0, 5.0, static_cast<std::size_t>(n));
    std::vector<double> ys;
    for (double x : xs)
        ys.push_back(x * x - 3.0 * x);
    for (std::size_t i = 0; i < xs.size(); ++i)
        EXPECT_NEAR(interpolate(xs, ys, xs[i]), ys[i], 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sizes, InterpolateAtSamples,
                         ::testing::Values(2, 3, 5, 17, 101));

} // namespace
} // namespace otft
