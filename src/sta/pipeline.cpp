#include "sta/pipeline.hpp"

#include <algorithm>
#include <limits>

#include "util/logging.hpp"
#include "util/stats_registry.hpp"
#include "util/trace.hpp"

namespace otft::sta {

using netlist::Gate;
using netlist::GateId;
using netlist::GateKind;
using netlist::Netlist;

namespace {

/**
 * Greedy stage assignment under a per-stage delay budget: walk the
 * netlist in topological order tracking each gate's within-stage
 * arrival; when adding a gate would blow the budget, push it to the
 * next stage (its inputs will be registered). This is the balanced
 * min-max partition underlying "cut the stage on the critical path":
 * bisecting on the budget finds the most balanced N-stage slicing.
 */
struct StageAssigner
{
    const Netlist &nl;
    /** Per-gate incremental delay (arc at its net load + net wire). */
    const std::vector<double> &gateDelay;
    /** Delay from a stage-entry register to a gate's inputs. */
    double launchDelay;
    /** Within-stage arrival per gate, reused across passes. */
    std::vector<double> intra;

    /** Outcome of one pass. */
    struct Pass
    {
        /** Stages used, or a count above the limit (overflow). */
        int stages = 0;
        /**
         * On a fit, the largest within-stage arrival assigned: the
         * pass makes the same choices, so also fits, at every budget
         * from here up to its own, and by monotonicity above it. On
         * an overflow, the smallest arrival pushed into a new stage:
         * every budget below it overflows too.
         */
        double bound = 0.0;
    };

    /**
     * Fill stage[g] for every gate, or stop early with a count above
     * `limit` as soon as the slicing needs more than `limit` stages
     * (stage[] is then incomplete).
     */
    Pass
    assign(double budget, int limit, std::vector<int> &stage)
    {
        static stats::Counter &stat_passes = stats::counter(
            "sta.pipeline.assign_passes",
            "stage-assignment passes run by the pipeliner's budget "
            "search");
        ++stat_passes;

        // Gate ids ascend in topological order (see Netlist), so
        // every entry is written before any later gate reads it.
        const std::size_t n = nl.numGates();
        stage.resize(n);
        intra.resize(n);
        int max_stage = 0;
        double max_intra = launchDelay;
        double min_pushed = std::numeric_limits<double>::infinity();

        for (std::size_t g = 0; g < n; ++g) {
            const Gate &gate = nl.gates()[g];
            const int fan_in = netlist::fanInOf(gate.kind);
            if (fan_in == 0) {
                stage[g] = 0;
                intra[g] = launchDelay;
                continue;
            }

            int st = 0;
            for (int k = 0; k < fan_in; ++k)
                st = std::max(st, stage[static_cast<std::size_t>(
                                      gate.fanin[static_cast<std::size_t>(
                                          k)])]);

            // Within-stage arrival: fanins in earlier stages arrive
            // from a register.
            double t = launchDelay;
            for (int k = 0; k < fan_in; ++k) {
                const std::size_t s = static_cast<std::size_t>(
                    gate.fanin[static_cast<std::size_t>(k)]);
                if (stage[s] == st)
                    t = std::max(t, intra[s]);
            }
            t += gateDelay[g];

            if (t > budget) {
                // Start a new stage with this gate.
                min_pushed = std::min(min_pushed, t);
                ++st;
                t = launchDelay + gateDelay[g];
                if (st >= limit)
                    return {st + 1, min_pushed};
            }
            stage[g] = st;
            intra[g] = t;
            max_stage = std::max(max_stage, st);
            max_intra = std::max(max_intra, t);
        }
        return {max_stage + 1, max_intra};
    }
};

} // namespace

CombDelays
Pipeliner::combDelays(const Netlist &comb,
                      const std::vector<double> &arrival) const
{
    const std::size_t n = comb.numGates();
    if (arrival.size() != n)
        fatal("Pipeliner: ", arrival.size(), " arrival times for ", n,
              " gates");

    // Incremental delay = arrival - max fanin arrival; for first-level
    // gates it is arrival - launch.
    CombDelays delays;
    delays.gate.assign(n, 0.0);
    const double launch = library.cell("dff").flop.clkToQ;
    for (std::size_t g = 0; g < n; ++g) {
        const Gate &gate = comb.gates()[g];
        const int fan_in = netlist::fanInOf(gate.kind);
        if (fan_in == 0 || arrival[g] < 0.0)
            continue;
        double src_max = 0.0;
        bool any = false;
        for (int k = 0; k < fan_in; ++k) {
            const std::size_t s = static_cast<std::size_t>(
                gate.fanin[static_cast<std::size_t>(k)]);
            if (arrival[s] >= 0.0) {
                src_max = std::max(src_max, arrival[s]);
                any = true;
            }
        }
        delays.gate[g] =
            std::max(arrival[g] - (any ? src_max : launch), 1e-18);
    }
    if (n > 0)
        delays.maxArrival = *std::max_element(arrival.begin(), arrival.end());
    return delays;
}

PipelineReport
Pipeliner::pipeline(const Netlist &comb, int stages) const
{
    if (stages <= 1)
        return pipeline(comb, CombDelays{}, stages);
    return pipeline(
        comb,
        combDelays(comb, StaEngine(library, config_).arrivalTimes(comb)),
        stages);
}

PipelineReport
Pipeliner::pipeline(const Netlist &comb, const CombDelays &delays,
                    int stages) const
{
    static stats::Counter &stat_runs = stats::counter(
        "sta.pipeline.runs", "netlists pipelined");
    static stats::Counter &stat_flops = stats::counter(
        "sta.pipeline.inserted_flops",
        "registers inserted by the pipeliner");
    OTFT_TRACE_SCOPE("sta.pipeline.cut");
    ++stat_runs;

    if (stages < 1)
        fatal("Pipeliner: stages must be >= 1, got ", stages);
    if (!comb.dffs().empty())
        fatal("Pipeliner: input netlist must be purely combinational");

    const std::size_t n = comb.numGates();
    std::vector<int> stage(n, 0);

    if (stages > 1) {
        if (delays.gate.size() != n)
            fatal("Pipeliner: delays for ", delays.gate.size(),
                  " gates, netlist has ", n);
        const liberty::FlopTiming &flop = library.cell("dff").flop;
        StageAssigner assigner{comb, delays.gate, flop.clkToQ, {}};

        // Parametric search: smallest per-stage budget that fits in
        // the requested stage count. Passes whose outcome an earlier
        // pass already decides are skipped; lo/hi follow the plain
        // bisection exactly.
        double lo = flop.clkToQ;
        for (double d : delays.gate)
            lo = std::max(lo, flop.clkToQ + d);
        double hi = delays.maxArrival + flop.clkToQ;
        constexpr double inf = std::numeric_limits<double>::infinity();
        double fits_from = inf, overflows_below = -inf;
        // Stage vector of the last fitting pass run. A fitting pass's
        // bound is at most its budget (a gate opening a stage arrives
        // at clk->Q + its delay <= lo <= mid), so each one lowers
        // fits_from.
        std::vector<int> fitted;
        for (int it = 0; it < 40; ++it) {
            const double mid = 0.5 * (lo + hi);
            bool fits = mid >= fits_from;
            if (!fits && mid >= overflows_below) {
                const StageAssigner::Pass pass =
                    assigner.assign(mid, stages, stage);
                fits = pass.stages <= stages;
                if (fits) {
                    fits_from = pass.bound;
                    fitted.swap(stage);
                } else {
                    overflows_below =
                        std::max(overflows_below, pass.bound);
                }
            }
            if (fits)
                hi = mid;
            else
                lo = mid;
        }
        // hi never rises, so it is at most the budget of the last
        // fitting pass run; at or above that pass's bound the pass's
        // choices hold unchanged, so its stage vector is hi's.
        if (fits_from <= hi)
            stage.swap(fitted);
        else
            assigner.assign(hi, std::numeric_limits<int>::max(), stage);
    }

    // Rebuild with register ranks on stage-crossing nets. DFF chains
    // are shared per (driver, depth), mirroring retiming register
    // sharing.
    PipelineReport report;
    report.stages = stages;
    Netlist &out = report.netlist;

    std::vector<GateId> remap(n, netlist::nullGate);
    // pipes[g][k] is g's signal delayed by k+1 cycles.
    std::vector<std::vector<GateId>> pipes(n);

    auto delayed = [&](GateId old_src, int cycles) -> GateId {
        const std::size_t s = static_cast<std::size_t>(old_src);
        if (cycles <= 0)
            return remap[s];
        auto &chain = pipes[s];
        while (static_cast<int>(chain.size()) < cycles) {
            const GateId prev = chain.empty() ? remap[s] : chain.back();
            chain.push_back(out.addDff(prev));
            ++report.insertedFlops;
        }
        return chain[static_cast<std::size_t>(cycles - 1)];
    };

    std::size_t input_idx = 0;
    for (std::size_t g = 0; g < n; ++g) {
        const Gate &gate = comb.gates()[g];
        switch (gate.kind) {
          case GateKind::Input:
            remap[g] = out.addInput(comb.inputNames()[input_idx++]);
            break;
          case GateKind::Const0:
            remap[g] = out.constant(false);
            break;
          case GateKind::Const1:
            remap[g] = out.constant(true);
            break;
          case GateKind::Dff:
            panic("Pipeliner: unexpected flop");
          default: {
            const int fan_in = netlist::fanInOf(gate.kind);
            GateId mapped[3] = {netlist::nullGate, netlist::nullGate,
                                netlist::nullGate};
            for (int k = 0; k < fan_in; ++k) {
                const GateId src =
                    gate.fanin[static_cast<std::size_t>(k)];
                const std::size_t s = static_cast<std::size_t>(src);
                mapped[k] = delayed(src, stage[g] - stage[s]);
            }
            remap[g] =
                out.addGate(gate.kind, mapped[0], mapped[1], mapped[2]);
            break;
          }
        }
    }

    // Outputs: align every output to the final stage so the block has
    // uniform latency.
    for (const auto &port : comb.outputs()) {
        const std::size_t g = static_cast<std::size_t>(port.gate);
        const GateId aligned =
            delayed(port.gate, (stages - 1) - stage[g]);
        out.addOutput(port.name, aligned);
    }
    stat_flops += static_cast<std::uint64_t>(report.insertedFlops);
    return report;
}

} // namespace otft::sta
