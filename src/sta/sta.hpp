/**
 * @file
 * Static timing analysis over mapped netlists.
 *
 * Levelized arrival/slew propagation through NLDM arcs with the
 * fanout wireload model, reporting minimum clock period, critical
 * path, cell area, and leakage — the framework's substitute for the
 * Synopsys Design Compiler timing/area reports the paper uses.
 *
 * Register-to-register timing: paths launch at DFF outputs (through
 * the load-dependent clk->Q arc) or primary inputs, and capture at
 * DFF D pins (plus setup) or primary outputs; by default inputs and
 * outputs are assumed registered in the enclosing context so that
 * block-level numbers compose. The clock margin (skew + jitter) is
 * charged once per cycle.
 */

#ifndef OTFT_STA_STA_HPP
#define OTFT_STA_STA_HPP

#include <array>
#include <vector>

#include "liberty/library.hpp"
#include "netlist/netlist.hpp"
#include "sta/wire.hpp"

namespace otft::sta {

/** Analysis controls. */
struct StaConfig
{
    /** Include wire cap/delay (false reproduces Fig. 15 w/o wire). */
    bool wireEnabled = true;
    /**
     * Extra routed span added to every net, meters. Used by the core
     * synthesizer to model the longer cross-block wires of wider
     * superscalar layouts.
     */
    double extraSpanPerNet = 0.0;
    /** Treat primary inputs as launched by registers (clk->Q). */
    bool registerInputs = true;
    /** Treat primary outputs as captured by registers (+setup). */
    bool registerOutputs = true;
};

/** Timing/area report for one netlist under one library. */
struct StaResult
{
    /** Minimum clock period, seconds (includes clock margin). */
    double minClockPeriod = 0.0;
    /** Maximum frequency = 1 / minClockPeriod, hertz. */
    double maxFrequency = 0.0;
    /** Worst endpoint data arrival (excludes setup/margin), s. */
    double worstArrival = 0.0;
    /** Total cell area, m^2. */
    double area = 0.0;
    /** Total leakage/static power, watts. */
    double leakage = 0.0;
    /** Number of cells (excluding inputs/constants). */
    std::size_t cellCount = 0;
    /** Number of DFFs. */
    std::size_t flopCount = 0;
    /** Gates on the critical path, endpoint first. */
    std::vector<netlist::GateId> criticalPath;
    /** Total wire delay along the critical path, seconds. */
    double criticalWireDelay = 0.0;
};

/** The timing engine, bound to one library. */
class StaEngine
{
  public:
    StaEngine(const liberty::CellLibrary &library, StaConfig config = {});

    /**
     * Analyze a netlist. A non-null `arrival` receives the gate arrival
     * times of the same propagation (what arrivalTimes() returns), so
     * a caller that also pipelines the netlist propagates it once.
     */
    StaResult analyze(const netlist::Netlist &netlist,
                      std::vector<double> *arrival = nullptr) const;

    /**
     * Data arrival time at every gate output (negative for gates that
     * never toggle, i.e. constant cones). Used by the pipeliner to
     * find delay-balanced cut points.
     */
    std::vector<double> arrivalTimes(const netlist::Netlist &nl) const;

    const StaConfig &config() const { return config_; }
    const liberty::CellLibrary &lib() const { return library; }

  private:
    struct Propagation
    {
        std::vector<double> arrival;
        std::vector<double> slew;
        std::vector<double> netLoad;
        std::vector<double> netWireDelay;
        std::vector<netlist::GateId> criticalPred;
    };

    Propagation propagate(const netlist::Netlist &nl) const;

    /**
     * The library cell of a gate kind: nullptr for kinds that are not
     * cells (inputs, constants); fatal if the library lacks the cell.
     */
    const liberty::StdCell *
    cellOf(netlist::GateKind kind) const
    {
        const liberty::StdCell *cell =
            kindCells[static_cast<std::size_t>(kind)];
        if (!cell && netlist::cellNameOf(kind))
            return &library.cell(netlist::cellNameOf(kind));
        return cell;
    }

    const liberty::CellLibrary &library;
    StaConfig config_;
    WireModel wireModel;
    /**
     * Library cell per GateKind, resolved once at construction
     * (nullptr for non-cell kinds and cells the library lacks).
     */
    std::array<const liberty::StdCell *, netlist::numGateKinds>
        kindCells{};
    /** Input pin cap per GateKind (0.0 where kindCells is null). */
    std::array<double, netlist::numGateKinds> kindInputCap{};
};

} // namespace otft::sta

#endif // OTFT_STA_STA_HPP
