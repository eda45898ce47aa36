#include "liberty/serialize.hpp"

#include <fstream>
#include <sstream>

#include "util/logging.hpp"
#include "util/stats_registry.hpp"

namespace otft::liberty {

namespace {

void
writeTable(std::ostream &os, const char *tag, const NldmTable &table)
{
    os << "    " << tag << " " << table.slewAxis().size() << " "
       << table.loadAxis().size() << "\n      ";
    for (double v : table.slewAxis())
        os << v << " ";
    os << "\n      ";
    for (double v : table.loadAxis())
        os << v << " ";
    os << "\n      ";
    for (double v : table.values())
        os << v << " ";
    os << "\n";
}

NldmTable
readTable(std::istream &is, const std::string &expected_tag)
{
    std::string tag;
    std::size_t n_slew = 0, n_load = 0;
    is >> tag >> n_slew >> n_load;
    if (!is || tag != expected_tag)
        fatal("liberty: expected table tag ", expected_tag, ", got ",
              tag);
    // The counts come from a file that may be corrupt: bound them
    // before allocating, so a garbage header is a parse error (and a
    // rebuild in tryLoadLibrary) instead of a bad_alloc/length_error.
    // Each bound also keeps n_slew * n_load from wrapping.
    constexpr std::size_t max_axis = 1024;
    if (n_slew > max_axis || n_load > max_axis)
        fatal("liberty: table ", expected_tag, " axis counts ", n_slew,
              " x ", n_load, " exceed ", max_axis);
    std::vector<double> slews(n_slew), loads(n_load),
        values(n_slew * n_load);
    for (auto &v : slews)
        is >> v;
    for (auto &v : loads)
        is >> v;
    for (auto &v : values)
        is >> v;
    if (!is)
        fatal("liberty: truncated table ", expected_tag);
    return NldmTable(std::move(slews), std::move(loads),
                     std::move(values));
}

} // namespace

void
writeLibrary(std::ostream &os, const CellLibrary &library)
{
    os.precision(17);
    os << "library " << library.name() << "\n";
    os << "vdd " << library.vdd() << "\n";
    os << "default_slew " << library.defaultSlew() << "\n";
    os << "clock_margin " << library.clockMargin() << "\n";
    const WireParams &w = library.wire();
    os << "wire " << w.resPerMeter << " " << w.capPerMeter << " "
       << w.lengthBase << " " << w.lengthPerFanout << " " << w.driverRes
       << "\n";
    os << "cells " << library.cellNames().size() << "\n";
    for (const std::string &name : library.cellNames()) {
        const StdCell &cell = library.cell(name);
        os << "cell " << cell.name << " " << cell.fanIn << " "
           << (cell.isSequential ? 1 : 0) << " " << cell.area << " "
           << cell.inputCap << " " << cell.leakage << "\n";
        if (cell.isSequential) {
            os << "  flop " << cell.flop.clkToQ << " " << cell.flop.setup
               << " " << cell.flop.hold << " " << cell.flop.clockPinCap
               << "\n";
        }
        os << "  arcs " << cell.arcs.size() << "\n";
        for (const TimingArc &arc : cell.arcs) {
            os << "  arc " << arc.fromPin << "\n";
            writeTable(os, "delay_rise",
                       arc.delay[static_cast<int>(Sense::Rise)]);
            writeTable(os, "delay_fall",
                       arc.delay[static_cast<int>(Sense::Fall)]);
            writeTable(os, "slew_rise",
                       arc.outputSlew[static_cast<int>(Sense::Rise)]);
            writeTable(os, "slew_fall",
                       arc.outputSlew[static_cast<int>(Sense::Fall)]);
        }
    }
}

CellLibrary
readLibrary(std::istream &is)
{
    std::string keyword, lib_name;
    is >> keyword >> lib_name;
    if (!is || keyword != "library")
        fatal("liberty: not a library file");

    double vdd = 0.0, default_slew = 0.0, clock_margin = 0.0;
    is >> keyword >> vdd;
    if (keyword != "vdd")
        fatal("liberty: expected vdd");
    is >> keyword >> default_slew;
    if (keyword != "default_slew")
        fatal("liberty: expected default_slew");
    is >> keyword >> clock_margin;
    if (keyword != "clock_margin")
        fatal("liberty: expected clock_margin");

    CellLibrary library(lib_name, vdd);
    library.setDefaultSlew(default_slew);
    library.setClockMargin(clock_margin);

    WireParams &w = library.wire();
    is >> keyword >> w.resPerMeter >> w.capPerMeter >> w.lengthBase >>
        w.lengthPerFanout >> w.driverRes;
    if (keyword != "wire")
        fatal("liberty: expected wire");

    std::size_t n_cells = 0;
    is >> keyword >> n_cells;
    if (keyword != "cells")
        fatal("liberty: expected cells");

    for (std::size_t c = 0; c < n_cells; ++c) {
        StdCell cell;
        int sequential = 0;
        is >> keyword >> cell.name >> cell.fanIn >> sequential >>
            cell.area >> cell.inputCap >> cell.leakage;
        if (!is || keyword != "cell")
            fatal("liberty: expected cell");
        cell.isSequential = sequential != 0;
        if (cell.isSequential) {
            is >> keyword >> cell.flop.clkToQ >> cell.flop.setup >>
                cell.flop.hold >> cell.flop.clockPinCap;
            if (keyword != "flop")
                fatal("liberty: expected flop");
        }
        std::size_t n_arcs = 0;
        is >> keyword >> n_arcs;
        if (keyword != "arcs")
            fatal("liberty: expected arcs");
        for (std::size_t a = 0; a < n_arcs; ++a) {
            TimingArc arc;
            is >> keyword >> arc.fromPin;
            if (keyword != "arc")
                fatal("liberty: expected arc");
            arc.delay[static_cast<int>(Sense::Rise)] =
                readTable(is, "delay_rise");
            arc.delay[static_cast<int>(Sense::Fall)] =
                readTable(is, "delay_fall");
            arc.outputSlew[static_cast<int>(Sense::Rise)] =
                readTable(is, "slew_rise");
            arc.outputSlew[static_cast<int>(Sense::Fall)] =
                readTable(is, "slew_fall");
            cell.arcs.push_back(std::move(arc));
        }
        library.addCell(std::move(cell));
    }
    return library;
}

void
saveLibrary(const std::string &path, const CellLibrary &library)
{
    std::ofstream os(path);
    if (!os)
        fatal("liberty: cannot write ", path);
    writeLibrary(os, library);
}

CellLibrary
loadLibrary(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("liberty: cannot read ", path);
    return readLibrary(is);
}

std::optional<CellLibrary>
tryLoadLibrary(const std::string &path)
{
    static stats::Counter &stat_hits = stats::counter(
        "liberty.cache.hits", "library loads served from disk cache");
    static stats::Counter &stat_misses = stats::counter(
        "liberty.cache.misses",
        "library loads that fell back to characterization");

    std::ifstream is(path);
    if (!is) {
        ++stat_misses;
        return std::nullopt;
    }
    try {
        CellLibrary library = readLibrary(is);
        ++stat_hits;
        return library;
    } catch (const FatalError &) {
        ++stat_misses;
        warn("liberty: cached library at ", path,
             " is unreadable; rebuilding");
        return std::nullopt;
    }
}

} // namespace otft::liberty
