/**
 * @file
 * DC operating point and DC sweep analyses.
 *
 * The DC engine solves the nonlinear operating point with
 * Newton-Raphson, falling back to source-stepping homotopy (ramping
 * all independent sources from zero) when a cold start fails — the
 * same strategy SPICE uses. Sweeps warm-start each point from its
 * neighbor, which is what makes the strongly nonlinear unipolar OTFT
 * inverter VTCs solvable quickly.
 */

#ifndef OTFT_CIRCUIT_DC_HPP
#define OTFT_CIRCUIT_DC_HPP

#include <vector>

#include "circuit/mna.hpp"

namespace otft::circuit {

/** Result of a DC sweep: one solution per sweep value. */
struct SweepResult
{
    /** The swept source values. */
    std::vector<double> values;
    /** The converged solution at each sweep point. */
    std::vector<Solution> solutions;
};

/**
 * DC analyses over one circuit. Holds a mutable reference because
 * sweeps temporarily rebind the swept source's waveform (it is
 * restored before the sweep returns). Solving uses the owned Mna's
 * workspace, so one DcAnalysis serves one thread at a time.
 */
class DcAnalysis
{
  public:
    explicit DcAnalysis(Circuit &circuit, NewtonConfig config = {});

    /**
     * Solve the DC operating point (sources at their t = 0 values).
     * Throws FatalError if the homotopy also fails to converge.
     */
    Solution operatingPoint();

    /** Operating point warm-started from a previous solution. */
    Solution operatingPoint(const Solution &initial_guess);

    /**
     * Sweep the given voltage source across `values`, warm-starting
     * each point. All other sources stay at their t = 0 values.
     */
    SweepResult sweepSource(SourceId source,
                            const std::vector<double> &values);

    /** Voltage of a node in a solution. */
    double
    nodeVoltage(const Solution &x, NodeId node) const
    {
        return mna.nodeVoltage(x, node);
    }

    /** Branch current delivered by a voltage source. */
    double
    sourceCurrent(const Solution &x, SourceId source) const
    {
        return mna.sourceCurrent(x, source);
    }

    /**
     * Total power delivered by all voltage sources in a solution,
     * watts (positive = dissipated in the circuit).
     */
    double totalSourcePower(const Solution &x) const;

    const Mna &system() const { return mna; }

  private:
    Circuit &ckt;
    Mna mna;
};

} // namespace otft::circuit

#endif // OTFT_CIRCUIT_DC_HPP
