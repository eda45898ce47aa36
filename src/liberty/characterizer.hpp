/**
 * @file
 * NLDM characterization of the organic standard cell library.
 *
 * Replaces the paper's SiliconSmart + HSPICE flow: for every cell and
 * every input pin, drive the pin with ramps over a grid of input
 * transition times and output loads, run a transistor-level transient
 * with the circuit engine, and record propagation delay and output
 * transition time into NLDM look-up tables. Flip-flop clk->Q, setup,
 * and hold are found by transient bisection.
 */

#ifndef OTFT_LIBERTY_CHARACTERIZER_HPP
#define OTFT_LIBERTY_CHARACTERIZER_HPP

#include <utility>
#include <vector>

#include "cells/topologies.hpp"
#include "circuit/transient.hpp"
#include "circuit/waveform.hpp"
#include "liberty/library.hpp"

namespace otft::liberty {

/** Characterization grid and solver settings. */
struct CharacterizerConfig
{
    /** Input transition times (20-80%), seconds. */
    std::vector<double> slewAxis = {2e-6, 8e-6, 32e-6, 128e-6};
    /** Output loads as multiples of the cell input capacitance. */
    std::vector<double> loadMultipliers = {0.25, 1.0, 4.0, 12.0};
    /** Transient step, seconds. */
    double dt = 0.3e-6;
    /**
     * Multiplier on the post-edge settling window. The nominal
     * windows carry ~8-10x headroom over the slowest golden-device
     * arcs; Monte Carlo characterization of slow process samples
     * widens them so a 3-sigma mobility draw still settles.
     */
    double settleScale = 1.0;
    /**
     * Solver settings of every measurement transient: the arc points,
     * the DFF clk->Q sweep and the setup bisection each copy this and
     * set only their own dt and tStop.
     */
    circuit::TransientConfig transient = {};
};

/** Characterizes the six-cell organic library. */
class Characterizer
{
  public:
    Characterizer(cells::CellFactory factory,
                  CharacterizerConfig config = {})
        : factory(std::move(factory)), config_(config)
    {}

    /**
     * Characterize all six cells and assemble the library, including
     * the organic interconnect parameters.
     */
    CellLibrary build() const;

    /** Characterize one combinational cell (exposed for tests). */
    StdCell characterizeCombinational(const std::string &name) const;

    /** Characterize the DFF (exposed for tests). */
    StdCell characterizeFlop() const;

    const CharacterizerConfig &config() const { return config_; }

  private:
    /** Build a fresh instance of the named cell with a load. */
    cells::BuiltCell instantiate(const std::string &name,
                                 double load_cap) const;

    /** Measured delay/slew of one (pin, slew, load) point. */
    struct ArcPoint
    {
        double delayRise = 0.0;
        double delayFall = 0.0;
        double slewRise = 0.0;
        double slewFall = 0.0;
    };
    /**
     * Measure one (pin, slew, load) point: a cache probe, then on a
     * miss one transient (which solves its own t = 0 operating
     * point). Hits in the process-wide result cache are used
     * verbatim as results, so output is bit-identical with the cache
     * cold, warm, or disabled (`ResultCache::setEnabled(false)`).
     */
    ArcPoint measurePoint(const std::string &name, int pin, double slew,
                          double load_cap) const;

    /** Average static power over all input states of a cell. */
    double averageStaticPower(const std::string &name) const;

    /** CK and Q traces of one DFF testbench run. */
    struct FlopRun
    {
        circuit::Trace ck;
        circuit::Trace q;
    };
    /**
     * The DFF testbench: PRE held high, a CLR pulse forcing Q to 0, D
     * ramping up from `d_start` and one CK rising edge at 2 ms, with
     * the output loaded by `load_cap`.
     */
    FlopRun runFlop(double load_cap, double d_start) const;

    /** Whether a DFF captures a 1 with the given D-before-CK lead. */
    bool flopCaptures(double d_lead, double load_cap) const;

    cells::CellFactory factory;
    CharacterizerConfig config_;
};

/**
 * Apply the organic technology constants (printed Au interconnect,
 * default slew, clock margin) to a characterized library. Shared by
 * the nominal build and the Monte Carlo per-sample assemblies so
 * every organic library variant carries identical wire parameters.
 */
void applyOrganicTechnology(CellLibrary &library,
                            const CharacterizerConfig &config);

/**
 * Build the full organic cell library (characterizes on first use;
 * a few seconds of transient simulation).
 */
CellLibrary makeOrganicLibrary(CharacterizerConfig config = {});

/**
 * The organic library, cached in a liberty text file at `path` so the
 * transistor-level characterization runs once per workspace. Used by
 * the benches and examples.
 */
CellLibrary cachedOrganicLibrary(
    const std::string &path = "organic.lib");

/**
 * A DNTT-class organic library: the identical cell topologies and
 * sizing re-characterized with a device of `mobility_scale` times the
 * pentacene band mobility (DNTT is ~10x, paper Secs. 5.3/6.2). The
 * characterization grid scales with the mobility so the LUTs stay
 * centered on the faster arcs.
 */
CellLibrary makeDnttLibrary(double mobility_scale = 10.0);

/**
 * Cached variant of makeDnttLibrary() at its default 10x mobility,
 * the only library the cache file holds.
 */
CellLibrary cachedDnttLibrary(
    const std::string &path = "organic_dntt.lib");

} // namespace otft::liberty

#endif // OTFT_LIBERTY_CHARACTERIZER_HPP
