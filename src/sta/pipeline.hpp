/**
 * @file
 * Delay-balanced pipelining of combinational netlists.
 *
 * Implements the paper's methodology of repeatedly "cutting the stage
 * which is on the critical path": gates are assigned to stages by
 * slicing the STA arrival-time profile into equal delay bands under
 * the *target library*, then register ranks are inserted on every
 * stage-crossing net (shared per driver, like retiming register
 * sharing). Because arrival times differ between the organic and
 * silicon libraries, the same block pipelined for each technology is
 * cut in different places — exactly the effect the paper describes in
 * Sec. 5.5.
 *
 * The cut comes from a 40-step bisection on the per-stage delay
 * budget, each step a greedy topological assignment pass. A pass is
 * monotone in the budget (a larger budget never puts a gate in a later
 * stage, or later within the same stage), so every pass bounds the
 * outcome of the passes still to come: one that fits at budget B also
 * fits at every budget at or above the largest within-stage arrival it
 * assigned, and one that overflows at B also overflows at every budget
 * below the smallest arrival it pushed into a new stage. The search
 * keeps the exact lo/hi/mid sequence of the plain bisection but runs a
 * pass only where these bounds leave the outcome open (a quarter to a
 * third of the steps on the core's blocks), and reuses the stage
 * vector of the last fitting pass, which a pass at the final budget
 * would reproduce.
 *
 * The per-gate delays the passes read come from one STA propagation of
 * the comb block (CombDelays); a caller that times the same block at
 * several depths computes them once and passes them to every cut.
 */

#ifndef OTFT_STA_PIPELINE_HPP
#define OTFT_STA_PIPELINE_HPP

#include "sta/sta.hpp"

namespace otft::sta {

/** Result of pipelining a block. */
struct PipelineReport
{
    /** The pipelined netlist (DFF ranks inserted). */
    netlist::Netlist netlist;
    /** Requested stage count. */
    int stages = 1;
    /** Registers inserted. */
    std::size_t insertedFlops = 0;
};

/**
 * The comb-block timing facts the pipeliner cuts by, independent of
 * the stage count.
 */
struct CombDelays
{
    /**
     * Per-gate incremental delay at the comb netlist's loads: arrival
     * minus latest timed fanin arrival (minus the flop's clk->Q for
     * first-level gates), 0 for inputs, constants and constant cones.
     */
    std::vector<double> gate;
    /** Latest arrival over all gates of the block, seconds. */
    double maxArrival = 0.0;
};

/**
 * Pipeliner bound to a library/config (the cut points depend on the
 * technology's delays).
 */
class Pipeliner
{
  public:
    Pipeliner(const liberty::CellLibrary &library, StaConfig config = {})
        : library(library), config_(config)
    {}

    /**
     * Cut delays of `comb` from its gate arrival times, as returned by
     * StaEngine::arrivalTimes() or handed back by StaEngine::analyze()
     * under this pipeliner's library and configuration.
     */
    CombDelays combDelays(const netlist::Netlist &comb,
                          const std::vector<double> &arrival) const;

    /**
     * Slice a purely combinational netlist into `stages` pipeline
     * stages, cutting by `delays` (combDelays() of `comb`; unread when
     * stages == 1). stages == 1 returns a copy of the input unchanged,
     * gate for gate. Fatal if the input already contains flops.
     */
    PipelineReport pipeline(const netlist::Netlist &comb,
                            const CombDelays &delays, int stages) const;

    /** As above, propagating `comb` once for its delays. */
    PipelineReport pipeline(const netlist::Netlist &comb,
                            int stages) const;

  private:
    const liberty::CellLibrary &library;
    StaConfig config_;
};

} // namespace otft::sta

#endif // OTFT_STA_PIPELINE_HPP
