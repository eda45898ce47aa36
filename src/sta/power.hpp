/**
 * @file
 * Power estimation over mapped netlists — the paper's first listed
 * piece of future work ("investigating more architectural tradeoffs
 * such as energy optimization", Sec. 7).
 *
 * Two components:
 *  - static power: the per-cell leakage/static numbers from the
 *    library (for the pseudo-E organic cells this is real ratioed
 *    static current, not just leakage — it dominates);
 *  - dynamic power: activity-weighted CV^2 f over every net
 *    (cell input pins + wire capacitance), with switching activities
 *    propagated from the primary inputs through the gate functions
 *    under an independence approximation (the standard static
 *    activity-propagation method).
 */

#ifndef OTFT_STA_POWER_HPP
#define OTFT_STA_POWER_HPP

#include "liberty/library.hpp"
#include "netlist/netlist.hpp"
#include "sta/wire.hpp"

namespace otft::sta {

/** Power estimate of one netlist at an operating point. */
struct PowerReport
{
    /** Static (leakage / ratioed) power, watts. */
    double staticPower = 0.0;
    /** Dynamic switching power at the given clock, watts. */
    double dynamicPower = 0.0;
    /** Clock-tree dynamic power (flop clock pins), watts. */
    double clockPower = 0.0;

    double
    total() const
    {
        return staticPower + dynamicPower + clockPower;
    }
};

/**
 * Activity-propagation power estimator bound to one library. Primary
 * inputs toggle with probability 0.2 per cycle, nets swing the full
 * library VDD, and wire capacitance is always included.
 */
class PowerEngine
{
  public:
    explicit PowerEngine(const liberty::CellLibrary &library)
        : library(library), wireModel(library.wire())
    {}

    /**
     * Estimate power at the given clock frequency.
     * @param nl the mapped netlist
     * @param frequency clock rate, hertz
     */
    PowerReport estimate(const netlist::Netlist &nl,
                         double frequency) const;

    /**
     * Signal probabilities (P(node == 1)) and per-cycle toggle rates
     * under the independence approximation. Exposed for tests.
     */
    struct Activities
    {
        std::vector<double> one;    // P(v == 1)
        std::vector<double> toggle; // expected toggles per cycle
    };
    Activities propagate(const netlist::Netlist &nl) const;

  private:
    const liberty::CellLibrary &library;
    WireModel wireModel;
};

} // namespace otft::sta

#endif // OTFT_STA_POWER_HPP
