/**
 * @file
 * Transient analysis with backward-Euler integration.
 *
 * Backward Euler is L-stable, which matters here: unipolar OTFT cells
 * have decades of conductance spread between on and off devices and
 * trapezoidal integration rings on such stiff systems.
 *
 * Two stepping modes:
 *
 *  - adaptive (default): the local truncation error of each BE step
 *    is estimated from divided differences of the last three accepted
 *    solutions (LTE ~ h^2/2 * v''); steps whose worst-node LTE
 *    exceeds `lteTol` are rejected and retried smaller, and accepted
 *    steps grow the next step by up to 2x. Steps always land exactly
 *    on source-waveform breakpoints (and restart their error history
 *    there, where the input derivative is discontinuous), so ramps
 *    start and stop on a solver step just like the fixed grid.
 *    Inside a segment, each step's Newton solve starts from the
 *    linear extrapolation of the last two accepted points.
 *
 *  - fixed (`fixedStep = true`): the original uniform grid at `dt`
 *    with breakpoints inserted, bit-for-bit identical to the
 *    historical engine; the reference for accuracy tests and for any
 *    trajectory that predates adaptive stepping.
 *
 * Both modes are causal: a point depends only on the points before it
 * and on the breakpoints up to it (tStop enters only as the last
 * landing). A run ended early by a stop predicate therefore returns a
 * bit-identical prefix of the full run.
 */

#ifndef OTFT_CIRCUIT_TRANSIENT_HPP
#define OTFT_CIRCUIT_TRANSIENT_HPP

#include <functional>
#include <vector>

#include "circuit/dc.hpp"
#include "circuit/mna.hpp"
#include "circuit/waveform.hpp"

namespace otft::circuit {

/** Transient run controls. */
struct TransientConfig
{
    /** Simulation end time, seconds. */
    double tStop = 1.0;
    /**
     * Base time step, seconds. Fixed mode steps at exactly dt;
     * adaptive mode starts each waveform segment at dt and derives
     * its step bounds from it when dtMin/dtMax are unset.
     */
    double dt = 1e-3;
    /** Newton controls for each step. */
    NewtonConfig newton = {};

    /** Integrate on the historical uniform grid (no LTE control). */
    bool fixedStep = false;
    /**
     * Per-step local truncation error target, volts (worst node).
     * The global waveform error stays within a small multiple of
     * this; see DESIGN.md "Solver accuracy/speed contract".
     */
    double lteTol = 2e-3;
    /** Smallest adaptive step; 0 derives dt / 256. */
    double dtMin = 0.0;
    /** Largest adaptive step; 0 derives dt * 64. */
    double dtMax = 0.0;
};

/**
 * Early end of a transient run: called after each recorded point with
 * its time and node voltages (indexed by NodeId; entry 0 is ground).
 * The run ends at the first point for which it returns true.
 */
using TransientStop =
    std::function<bool(double t, const std::vector<double> &v)>;

/** Sampled node voltages and source currents over a transient run. */
class TransientResult
{
  public:
    TransientResult(std::vector<double> time,
                    std::vector<std::vector<double>> node_v,
                    std::vector<std::vector<double>> source_i);

    /** Voltage trace of a node. */
    Trace node(NodeId node) const;

    /** Branch current trace of a voltage source. */
    Trace source(SourceId source) const;

    /** The shared timebase. */
    const std::vector<double> &time() const { return time_; }

    /**
     * Energy delivered by a voltage source over [t0, t1], joules
     * (trapezoidal integral of v * i).
     */
    double sourceEnergy(SourceId source, double v_value, double t0,
                        double t1) const;

  private:
    std::vector<double> time_;
    /** nodeV[node][sample]; index 0 is ground (all zeros). */
    std::vector<std::vector<double>> nodeV;
    /** sourceI[source][sample]. */
    std::vector<std::vector<double>> sourceI;
};

/** Transient engine over one circuit. */
class TransientAnalysis
{
  public:
    explicit TransientAnalysis(Circuit &circuit);

    /**
     * Run from the DC operating point at t = 0 (solved here, with
     * config.newton) to config.tStop. A `stop` predicate, if given,
     * ends the run at the first recorded point it accepts; the result
     * is then a prefix of the full run. Throws FatalError if any step
     * fails to converge after step-size reduction.
     */
    TransientResult run(const TransientConfig &config,
                        const TransientStop &stop = {}) const;

  private:
    TransientResult runFixed(const TransientConfig &config, Mna &mna,
                             Solution x, const TransientStop &stop) const;
    TransientResult runAdaptive(const TransientConfig &config, Mna &mna,
                                Solution x,
                                const TransientStop &stop) const;

    Circuit &ckt;
};

} // namespace otft::circuit

#endif // OTFT_CIRCUIT_TRANSIENT_HPP
