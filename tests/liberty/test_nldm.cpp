/** @file Unit tests for NLDM look-up tables. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "liberty/nldm.hpp"
#include "util/logging.hpp"

namespace otft::liberty {
namespace {

NldmTable
makeLinearTable()
{
    // value = 2*slew + 3*load.
    return NldmTable::fromModel({1.0, 2.0, 4.0}, {10.0, 20.0, 40.0},
                                [](double s, double l) {
                                    return 2.0 * s + 3.0 * l;
                                });
}

TEST(Nldm, ExactAtGridPoints)
{
    const auto t = makeLinearTable();
    EXPECT_DOUBLE_EQ(t.lookup(1.0, 10.0), 32.0);
    EXPECT_DOUBLE_EQ(t.lookup(4.0, 40.0), 128.0);
    EXPECT_DOUBLE_EQ(t.lookup(2.0, 20.0), 64.0);
}

TEST(Nldm, BilinearInsideGrid)
{
    const auto t = makeLinearTable();
    // A bilinear interpolant reproduces a linear function exactly.
    EXPECT_NEAR(t.lookup(1.5, 15.0), 2.0 * 1.5 + 3.0 * 15.0, 1e-12);
    EXPECT_NEAR(t.lookup(3.0, 30.0), 2.0 * 3.0 + 3.0 * 30.0, 1e-12);
}

TEST(Nldm, LinearExtrapolationOutsideGrid)
{
    const auto t = makeLinearTable();
    EXPECT_NEAR(t.lookup(8.0, 80.0), 2.0 * 8.0 + 3.0 * 80.0, 1e-12);
    EXPECT_NEAR(t.lookup(0.5, 5.0), 2.0 * 0.5 + 3.0 * 5.0, 1e-12);
}

/**
 * The one-call bilinear lookup as written before it was split into
 * locate() and at(): the split must reproduce its rounding exactly.
 */
double
referenceLookup(const NldmTable &t, double slew, double load)
{
    const auto segment = [](const std::vector<double> &axis, double x) {
        const auto it = std::upper_bound(axis.begin(), axis.end(), x);
        std::size_t hi = static_cast<std::size_t>(it - axis.begin());
        hi = std::clamp<std::size_t>(hi, 1, axis.size() - 1);
        return hi - 1;
    };
    const auto &sa = t.slewAxis();
    const auto &la = t.loadAxis();
    const auto &v = t.values();
    const std::size_t i = segment(sa, slew);
    const std::size_t j = segment(la, load);
    const std::size_t n_load = la.size();
    const double ts = (slew - sa[i]) / (sa[i + 1] - sa[i]);
    const double tl = (load - la[j]) / (la[j + 1] - la[j]);
    const double v00 = v[i * n_load + j];
    const double v01 = v[i * n_load + j + 1];
    const double v10 = v[(i + 1) * n_load + j];
    const double v11 = v[(i + 1) * n_load + j + 1];
    const double a = v00 + (v01 - v00) * tl;
    const double b = v10 + (v11 - v10) * tl;
    return a + (b - a) * ts;
}

bool
sameBits(double x, double y)
{
    return std::memcmp(&x, &y, sizeof(double)) == 0;
}

TEST(Nldm, LocateThenAtIsLookupBitForBit)
{
    // A non-linear table, so interpolation and extrapolation both
    // round; the split lookup must round identically.
    const auto t = NldmTable::fromModel(
        {1e-12, 3e-12, 1e-11, 4e-11}, {1e-15, 2e-15, 7e-15},
        [](double s, double l) {
            return 1e-12 + 0.7 * s + 3e3 * l + 1e13 * s * l +
                   2e10 * s * s;
        });
    const std::vector<double> slews = {
        2e-13,  1e-12, 1.7e-12, 3e-12, 5.5e-12, 1e-11,
        2.9e-11, 4e-11, 9e-11};
    const std::vector<double> loads = {
        1e-16, 1e-15, 1.3e-15, 2e-15, 4.1e-15, 7e-15, 2e-14};
    for (double s : slews)
        for (double l : loads) {
            const double split = t.at(t.locate(s, l));
            EXPECT_TRUE(sameBits(split, t.lookup(s, l)))
                << "slew " << s << " load " << l;
            EXPECT_TRUE(sameBits(split, referenceLookup(t, s, l)))
                << "slew " << s << " load " << l;
        }
}

TEST(Nldm, LocateFindsTheGridCell)
{
    const auto t = makeLinearTable();
    const NldmPoint inside = t.locate(1.5, 30.0);
    EXPECT_EQ(inside.i, 0u);
    EXPECT_EQ(inside.j, 1u);
    EXPECT_DOUBLE_EQ(inside.ts, 0.5);
    EXPECT_DOUBLE_EQ(inside.tl, 0.5);
    // Outside the grid: the edge cell, weights outside [0, 1].
    const NldmPoint below = t.locate(0.5, 5.0);
    EXPECT_EQ(below.i, 0u);
    EXPECT_EQ(below.j, 0u);
    EXPECT_LT(below.ts, 0.0);
    EXPECT_LT(below.tl, 0.0);
    const NldmPoint above = t.locate(8.0, 80.0);
    EXPECT_EQ(above.i, 1u);
    EXPECT_EQ(above.j, 1u);
    EXPECT_GT(above.ts, 1.0);
    EXPECT_GT(above.tl, 1.0);
}

TEST(Nldm, ValidatesConstruction)
{
    EXPECT_THROW(NldmTable({1.0}, {1.0, 2.0}, {1.0, 2.0}), FatalError);
    EXPECT_THROW(NldmTable({2.0, 1.0}, {1.0, 2.0},
                           {1.0, 2.0, 3.0, 4.0}),
                 FatalError);
    EXPECT_THROW(NldmTable({1.0, 2.0}, {1.0, 2.0}, {1.0}), FatalError);
}

TEST(Nldm, EmptyLookupIsFatal)
{
    NldmTable empty;
    EXPECT_TRUE(empty.empty());
    EXPECT_THROW(empty.lookup(1.0, 1.0), FatalError);
    EXPECT_THROW(empty.locate(1.0, 1.0), FatalError);
}

/** Property: lookup is monotone when the table is monotone. */
class NldmMonotone : public ::testing::TestWithParam<double>
{
};

TEST_P(NldmMonotone, MonotoneInLoad)
{
    const auto t = NldmTable::fromModel(
        {1e-12, 1e-11, 1e-10}, {1e-15, 1e-14, 1e-13},
        [](double s, double l) { return 1e-12 + 5.0 * s + 2e3 * l; });
    const double slew = GetParam();
    double prev = -1.0;
    for (double load = 1e-16; load < 1e-12; load *= 2.0) {
        const double v = t.lookup(slew, load);
        EXPECT_GT(v, prev);
        prev = v;
    }
}

INSTANTIATE_TEST_SUITE_P(Slews, NldmMonotone,
                         ::testing::Values(1e-12, 5e-12, 5e-11,
                                           2e-10));

} // namespace
} // namespace otft::liberty
