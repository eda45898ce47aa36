/** @file Unit tests for the cell library container. */

#include <gtest/gtest.h>

#include "liberty/library.hpp"
#include "util/logging.hpp"

namespace otft::liberty {
namespace {

StdCell
makeCell(const std::string &name, int fan_in)
{
    StdCell cell;
    cell.name = name;
    cell.fanIn = fan_in;
    cell.area = 1e-12;
    cell.inputCap = 1e-15;
    for (int p = 0; p < fan_in; ++p) {
        TimingArc arc;
        arc.fromPin = std::string(1, static_cast<char>('a' + p));
        for (int s = 0; s < 2; ++s) {
            arc.delay[s] = NldmTable::fromModel(
                {1e-12, 1e-10}, {1e-15, 1e-13},
                [&](double slew, double load) {
                    return 1e-11 * (p + 1) + 0.1 * slew + 1e3 * load +
                           (s == 0 ? 1e-12 : 0.0);
                });
            arc.outputSlew[s] = arc.delay[s];
        }
        cell.arcs.push_back(std::move(arc));
    }
    return cell;
}

TEST(Library, AddAndLookup)
{
    CellLibrary lib("test", 1.0);
    lib.addCell(makeCell("inv", 1));
    lib.addCell(makeCell("nand2", 2));
    EXPECT_TRUE(lib.hasCell("inv"));
    EXPECT_FALSE(lib.hasCell("xor2"));
    EXPECT_EQ(lib.cell("nand2").fanIn, 2);
    EXPECT_EQ(lib.cellNames().size(), 2u);
    EXPECT_THROW(lib.cell("missing"), FatalError);
}

TEST(Library, DuplicateCellIsFatal)
{
    CellLibrary lib("test", 1.0);
    lib.addCell(makeCell("inv", 1));
    EXPECT_THROW(lib.addCell(makeCell("inv", 1)), FatalError);
}

TEST(Library, ArcBoundsChecked)
{
    const auto cell = makeCell("nand2", 2);
    EXPECT_NO_THROW(cell.arc(0));
    EXPECT_NO_THROW(cell.arc(1));
    EXPECT_THROW(cell.arc(2), FatalError);
    EXPECT_THROW(cell.arc(-1), FatalError);
}

TEST(Library, WorstDelayPicksMaxSense)
{
    const auto cell = makeCell("inv", 1);
    const auto &arc = cell.arc(0);
    const double rise =
        arc.delay[static_cast<int>(Sense::Rise)].lookup(1e-11, 1e-14);
    const double fall =
        arc.delay[static_cast<int>(Sense::Fall)].lookup(1e-11, 1e-14);
    EXPECT_DOUBLE_EQ(arc.worstDelay(1e-11, 1e-14),
                     std::max(rise, fall));
}

TEST(Library, LocatedWorstMatchesPerTableLookups)
{
    // One locate() serves all four tables of an arc, bit for bit.
    const auto cell = makeCell("nand2", 2);
    const auto &arc = cell.arc(1);
    for (double slew : {1e-13, 1e-12, 3e-11, 1e-10, 4e-10})
        for (double load : {1e-16, 1e-15, 2e-14, 1e-13, 5e-13}) {
            const NldmPoint p = arc.locate(slew, load);
            EXPECT_EQ(arc.worstDelay(p),
                      std::max(arc.delay[0].lookup(slew, load),
                               arc.delay[1].lookup(slew, load)));
            EXPECT_EQ(arc.worstSlew(p),
                      std::max(arc.outputSlew[0].lookup(slew, load),
                               arc.outputSlew[1].lookup(slew, load)));
            EXPECT_EQ(arc.worstDelay(slew, load), arc.worstDelay(p));
        }
}

TEST(Library, ArcTablesMustShareAxes)
{
    // worstDelay/worstSlew locate once on delay[0]'s axes for all four
    // tables, so addCell refuses an arc whose tables disagree.
    const NldmTable other_slews = NldmTable::fromModel(
        {1e-12, 2e-10}, {1e-15, 1e-13},
        [](double s, double l) { return 0.1 * s + 1e3 * l; });
    const NldmTable other_loads = NldmTable::fromModel(
        {1e-12, 1e-10}, {1e-15, 3e-13},
        [](double s, double l) { return 0.1 * s + 1e3 * l; });
    for (const NldmTable *t : {&other_slews, &other_loads}) {
        // Tables 0-1: delay rise/fall; 2-3: output slew rise/fall.
        for (int table = 0; table < 4; ++table) {
            StdCell cell = makeCell("nand2", 2);
            TimingArc &arc = cell.arcs[1];
            (table < 2 ? arc.delay[table] : arc.outputSlew[table - 2]) =
                *t;
            CellLibrary lib("test", 1.0);
            EXPECT_THROW(lib.addCell(std::move(cell)), FatalError)
                << "table " << table;
            EXPECT_FALSE(lib.hasCell("nand2"));
        }
    }
}

TEST(Library, WireAndMarginAccessors)
{
    CellLibrary lib("test", 5.0);
    lib.wire().resPerMeter = 123.0;
    lib.setDefaultSlew(1e-9);
    lib.setClockMargin(2e-9);
    EXPECT_DOUBLE_EQ(lib.wire().resPerMeter, 123.0);
    EXPECT_DOUBLE_EQ(lib.defaultSlew(), 1e-9);
    EXPECT_DOUBLE_EQ(lib.clockMargin(), 2e-9);
    EXPECT_DOUBLE_EQ(lib.vdd(), 5.0);
}

} // namespace
} // namespace otft::liberty
