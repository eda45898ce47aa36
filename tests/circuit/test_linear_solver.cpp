/** @file Unit tests for the dense LU solver. */

#include <gtest/gtest.h>

#include "circuit/linear_solver.hpp"
#include "util/rng.hpp"

namespace otft::circuit {
namespace {

/** Factor `a` and solve for `b` in place; false when singular. */
bool
factorAndSolve(const Matrix &a, std::vector<double> &b)
{
    LuFactors lu;
    if (!lu.factor(a))
        return false;
    lu.solve(b);
    return true;
}

TEST(LinearSolver, SolvesIdentity)
{
    Matrix a(3);
    for (std::size_t i = 0; i < 3; ++i)
        a.at(i, i) = 1.0;
    std::vector<double> b = {1.0, 2.0, 3.0};
    ASSERT_TRUE(factorAndSolve(a, b));
    EXPECT_DOUBLE_EQ(b[0], 1.0);
    EXPECT_DOUBLE_EQ(b[1], 2.0);
    EXPECT_DOUBLE_EQ(b[2], 3.0);
}

TEST(LinearSolver, Solves2x2)
{
    Matrix a(2);
    a.at(0, 0) = 2.0;
    a.at(0, 1) = 1.0;
    a.at(1, 0) = 1.0;
    a.at(1, 1) = 3.0;
    std::vector<double> b = {5.0, 10.0};
    ASSERT_TRUE(factorAndSolve(a, b));
    EXPECT_NEAR(b[0], 1.0, 1e-12);
    EXPECT_NEAR(b[1], 3.0, 1e-12);
}

TEST(LinearSolver, RequiresPivoting)
{
    // Zero on the diagonal forces a row swap.
    Matrix a(2);
    a.at(0, 0) = 0.0;
    a.at(0, 1) = 1.0;
    a.at(1, 0) = 1.0;
    a.at(1, 1) = 0.0;
    std::vector<double> b = {7.0, 9.0};
    ASSERT_TRUE(factorAndSolve(a, b));
    EXPECT_NEAR(b[0], 9.0, 1e-12);
    EXPECT_NEAR(b[1], 7.0, 1e-12);
}

TEST(LinearSolver, DetectsSingular)
{
    Matrix a(2);
    a.at(0, 0) = 1.0;
    a.at(0, 1) = 2.0;
    a.at(1, 0) = 2.0;
    a.at(1, 1) = 4.0;
    std::vector<double> b = {1.0, 2.0};
    EXPECT_FALSE(factorAndSolve(a, b));
}

TEST(LinearSolver, SizeMismatchFails)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Matrix a(2);
    a.at(0, 0) = 1.0;
    a.at(1, 1) = 1.0;
    LuFactors lu;
    ASSERT_TRUE(lu.factor(a));
    std::vector<double> b = {1.0};
    EXPECT_DEATH(lu.solve(b), "RHS size mismatch");
}

/** Property sweep: random well-conditioned systems round-trip. */
class RandomSystems : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomSystems, ResidualIsTiny)
{
    const int n = GetParam();
    Rng rng(static_cast<std::uint64_t>(n));

    Matrix a(static_cast<std::size_t>(n));
    std::vector<std::vector<double>> a_copy(
        static_cast<std::size_t>(n),
        std::vector<double>(static_cast<std::size_t>(n)));
    for (int r = 0; r < n; ++r) {
        for (int c = 0; c < n; ++c) {
            const double v = rng.uniform(-1.0, 1.0) +
                             (r == c ? static_cast<double>(n) : 0.0);
            a.at(static_cast<std::size_t>(r),
                 static_cast<std::size_t>(c)) = v;
            a_copy[static_cast<std::size_t>(r)]
                  [static_cast<std::size_t>(c)] = v;
        }
    }
    std::vector<double> b(static_cast<std::size_t>(n));
    for (auto &v : b)
        v = rng.uniform(-5.0, 5.0);
    const std::vector<double> b_copy = b;

    ASSERT_TRUE(factorAndSolve(a, b));
    for (int r = 0; r < n; ++r) {
        double sum = 0.0;
        for (int c = 0; c < n; ++c)
            sum += a_copy[static_cast<std::size_t>(r)]
                         [static_cast<std::size_t>(c)] *
                   b[static_cast<std::size_t>(c)];
        EXPECT_NEAR(sum, b_copy[static_cast<std::size_t>(r)], 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RandomSystems,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(MatrixPattern, ZeroEntriesClearsOnlyListedSlots)
{
    Matrix a(3);
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            a.at(r, c) = 1.0 + static_cast<double>(r * 3 + c);
    // Flattened entries (0,0) and (2,1).
    a.zeroEntries({0u, 7u});
    EXPECT_EQ(a.at(0, 0), 0.0);
    EXPECT_EQ(a.at(2, 1), 0.0);
    EXPECT_EQ(a.at(1, 1), 5.0);
    EXPECT_EQ(a.at(2, 2), 9.0);
}

} // namespace
} // namespace otft::circuit
