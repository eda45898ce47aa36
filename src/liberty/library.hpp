/**
 * @file
 * Standard cell library data model: timing arcs, cells, and the
 * library container with its technology (wire) parameters.
 *
 * Both libraries expose the same six cells — INV, NAND2, NAND3, NOR2,
 * NOR3, DFF — because the paper trims the fully-featured TSMC 45 nm
 * library down to the cells the organic library offers, "to provide a
 * fair comparison and remove effects caused by library richness
 * mismatch" (Sec. 5.1).
 */

#ifndef OTFT_LIBERTY_LIBRARY_HPP
#define OTFT_LIBERTY_LIBRARY_HPP

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "liberty/nldm.hpp"

namespace otft::liberty {

/** Output transition sense of a timing arc. */
enum class Sense { Rise = 0, Fall = 1 };

/** One input-pin to output-pin combinational timing arc. */
struct TimingArc
{
    /** Input pin name ("a", "b", "c"). */
    std::string fromPin;
    /** Propagation delay tables indexed by output sense. */
    NldmTable delay[2];
    /** Output transition-time tables indexed by output sense. */
    NldmTable outputSlew[2];

    /**
     * Locate (slew, load) once for all four tables. They share both
     * axes: CellLibrary::addCell refuses an arc whose tables do not.
     */
    NldmPoint
    locate(double slew, double load) const
    {
        return delay[0].locate(slew, load);
    }

    /** Worst-case delay at a located point (max of rise/fall). */
    double
    worstDelay(const NldmPoint &p) const
    {
        return std::max(delay[0].at(p), delay[1].at(p));
    }

    /** Worst-case output slew at a located point. */
    double
    worstSlew(const NldmPoint &p) const
    {
        return std::max(outputSlew[0].at(p), outputSlew[1].at(p));
    }

    /** Worst-case delay at an operating point (max of rise/fall). */
    double
    worstDelay(double slew, double load) const
    {
        return worstDelay(locate(slew, load));
    }
};

/** Sequential timing parameters of a flip-flop. */
struct FlopTiming
{
    /** Clock-to-Q propagation delay, seconds (worst sense). */
    double clkToQ = 0.0;
    /** Setup time of D before the capturing edge, seconds. */
    double setup = 0.0;
    /** Hold time of D after the capturing edge, seconds. */
    double hold = 0.0;
    /** Clock pin capacitance, farads. */
    double clockPinCap = 0.0;
};

/** One standard cell. */
struct StdCell
{
    std::string name;
    /** Number of logic inputs (1 for INV and DFF's D pin). */
    int fanIn = 1;
    bool isSequential = false;
    /** Cell footprint, m^2. */
    double area = 0.0;
    /** Input pin capacitance, farads (same for all logic pins). */
    double inputCap = 0.0;
    /** Average static/leakage power, watts. */
    double leakage = 0.0;
    /** Combinational arcs, one per input pin (D->Q arc for a DFF). */
    std::vector<TimingArc> arcs;
    /** Sequential parameters (valid when isSequential). */
    FlopTiming flop;

    /** The arc from the given input pin index. */
    const TimingArc &arc(int pin) const;
};

/** Interconnect technology parameters for the wireload model. */
struct WireParams
{
    /** Wire resistance per meter, ohms/m. */
    double resPerMeter = 0.0;
    /** Wire capacitance per meter, farads/m. */
    double capPerMeter = 0.0;
    /**
     * Estimated net length: base + perFanout * fanout, meters.
     * Scales with the physical size of the technology's cells.
     */
    double lengthBase = 0.0;
    double lengthPerFanout = 0.0;
    /** Equivalent driver resistance for Elmore delay, ohms. */
    double driverRes = 0.0;
};

/** A complete characterized library. */
class CellLibrary
{
  public:
    CellLibrary(std::string name, double vdd)
        : name_(std::move(name)), vdd_(vdd)
    {}

    /**
     * Add a cell; name must be unique, and the four tables of each
     * arc must share both axes (fatal otherwise).
     */
    void addCell(StdCell cell);

    /** @return the cell with this name; fatal if missing. */
    const StdCell &cell(const std::string &name) const;

    /** @return true if a cell with this name exists. */
    bool hasCell(const std::string &name) const;

    /** All cell names in insertion order. */
    const std::vector<std::string> &cellNames() const { return order; }

    const std::string &name() const { return name_; }
    double vdd() const { return vdd_; }

    WireParams &wire() { return wire_; }
    const WireParams &wire() const { return wire_; }

    /**
     * Default input slew assumed at primary inputs / flop outputs when
     * no driver information exists, seconds.
     */
    double defaultSlew() const { return defaultSlew_; }
    void setDefaultSlew(double slew) { defaultSlew_ = slew; }

    /** Clock skew + jitter margin charged per cycle, seconds. */
    double clockMargin() const { return clockMargin_; }
    void setClockMargin(double margin) { clockMargin_ = margin; }

    /**
     * A 64-bit content digest over everything downstream timing can
     * observe: name, vdd, wire parameters, default slew, clock margin,
     * and every table value of every cell in insertion order. Two
     * libraries with equal digests synthesize identically; used to key
     * memoized design-point evaluations (util/result_cache.hpp).
     */
    std::uint64_t contentHash() const;

  private:
    std::string name_;
    double vdd_;
    WireParams wire_;
    double defaultSlew_ = 0.0;
    double clockMargin_ = 0.0;
    std::map<std::string, StdCell> cells;
    std::vector<std::string> order;
};

} // namespace otft::liberty

#endif // OTFT_LIBERTY_LIBRARY_HPP
