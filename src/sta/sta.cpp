#include "sta/sta.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

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
 * Fraction of the library clock margin charged when the wire model is
 * disabled. Clock skew is wire RC; with ideal wires only the jitter
 * floor remains.
 */
constexpr double jitterMarginFraction = 0.2;

/**
 * Wireload block-span scaling: every net additionally routes
 * spanCoefficient * sqrt(total cell area), the classic block-size
 * dependence of synthesis wireload models. Bigger blocks (wider
 * cores, deeper pipelines with their added register ranks) get slower
 * wires — the feedback that saturates silicon pipelining while leaving
 * organic (gate-dominated) timing untouched.
 */
constexpr double spanCoefficient = 0.15;

} // namespace

StaEngine::StaEngine(const liberty::CellLibrary &library,
                     StaConfig config)
    : library(library), config_(config),
      wireModel(library.wire(), config.wireEnabled)
{
    for (std::size_t k = 0; k < netlist::numGateKinds; ++k) {
        const char *name = netlist::cellNameOf(static_cast<GateKind>(k));
        if (name && library.hasCell(name)) {
            kindCells[k] = &library.cell(name);
            kindInputCap[k] = kindCells[k]->inputCap;
        }
    }
}

StaEngine::Propagation
StaEngine::propagate(const Netlist &nl) const
{
    static stats::Counter &stat_passes = stats::counter(
        "sta.levelization.passes",
        "topological propagation passes over a netlist");
    static stats::Counter &stat_arcs = stats::counter(
        "sta.arcs.evaluated", "timing arc lookups during propagation");
    static stats::Counter &stat_wires = stats::counter(
        "sta.wire.evaluations", "wireload model evaluations");
    OTFT_TRACE_SCOPE("sta.propagate");
    ++stat_passes;
    // The loops count locally: a shared atomic touched per net and
    // per arc serializes concurrent passes (util/stats_registry.hpp).
    std::uint64_t arcs_evaluated = 0;

    const std::size_t n = nl.numGates();
    const auto fanouts = nl.fanouts();
    const liberty::StdCell &dff_cell = *cellOf(GateKind::Dff);

    Propagation p;
    p.arrival.assign(n, 0.0);
    p.slew.assign(n, 0.0);
    p.netLoad.assign(n, 0.0);
    p.netWireDelay.assign(n, 0.0);
    p.criticalPred.assign(n, netlist::nullGate);

    // Block-span term of the wireload model: nets in a bigger block
    // route farther.
    double cell_area = 0.0;
    for (const Gate &gate : nl.gates())
        if (const liberty::StdCell *cell = cellOf(gate.kind))
            cell_area += cell->area;
    const double span =
        config_.extraSpanPerNet + spanCoefficient * std::sqrt(cell_area);

    // --- Per-net loads: sink pin caps + wire cap; per-net wire delay.
    // Every gate kind was resolved to a cell (or fatal) by the area
    // loop above, so a non-cell sink adds its 0.0 pin cap.
    for (std::size_t g = 0; g < n; ++g) {
        double sink_cap = 0.0;
        for (GateId s : fanouts[g])
            sink_cap +=
                kindInputCap[static_cast<std::size_t>(nl.gate(s).kind)];
        const WireEstimate wire = wireModel.estimate(
            static_cast<int>(fanouts[g].size()), sink_cap, span);
        p.netLoad[g] = sink_cap + wire.cap;
        p.netWireDelay[g] = wire.delay;
    }

    constexpr double neg_inf = -1.0;
    const double launch =
        config_.registerInputs ? dff_cell.flop.clkToQ : 0.0;

    for (std::size_t g = 0; g < n; ++g) {
        const Gate &gate = nl.gates()[g];
        switch (gate.kind) {
          case GateKind::Input:
            p.arrival[g] = launch;
            p.slew[g] = library.defaultSlew();
            continue;
          case GateKind::Const0:
          case GateKind::Const1:
            // Constants never toggle: they impose no timing.
            p.arrival[g] = neg_inf;
            p.slew[g] = library.defaultSlew();
            continue;
          case GateKind::Dff: {
            // Launch point: load-dependent clk->Q through the D->Q
            // arc tables.
            const liberty::TimingArc &arc = dff_cell.arc(0);
            const liberty::NldmPoint at =
                arc.locate(library.defaultSlew(), p.netLoad[g]);
            p.arrival[g] = arc.worstDelay(at);
            p.slew[g] = arc.worstSlew(at);
            continue;
          }
          default:
            break;
        }

        const liberty::StdCell &cell = *cellOf(gate.kind);
        double best = neg_inf;
        double best_slew = library.defaultSlew();
        GateId best_pred = netlist::nullGate;
        for (int pin = 0; pin < cell.fanIn; ++pin) {
            const GateId src = gate.fanin[static_cast<std::size_t>(pin)];
            const std::size_t s = static_cast<std::size_t>(src);
            if (p.arrival[s] < 0.0)
                continue; // constant fanin
            ++arcs_evaluated;
            const liberty::TimingArc &arc = cell.arc(pin);
            const liberty::NldmPoint at =
                arc.locate(p.slew[s], p.netLoad[g]);
            const double t =
                p.arrival[s] + p.netWireDelay[s] + arc.worstDelay(at);
            if (t > best) {
                best = t;
                best_slew = arc.worstSlew(at);
                best_pred = src;
            }
        }
        if (best < 0.0) {
            // All fanins constant: acts as a constant itself.
            p.arrival[g] = neg_inf;
            p.slew[g] = library.defaultSlew();
        } else {
            p.arrival[g] = best;
            p.slew[g] = best_slew;
            p.criticalPred[g] = best_pred;
        }
    }
    stat_wires += n;
    stat_arcs += arcs_evaluated;
    return p;
}

std::vector<double>
StaEngine::arrivalTimes(const Netlist &nl) const
{
    return propagate(nl).arrival;
}

StaResult
StaEngine::analyze(const Netlist &nl, std::vector<double> *arrival) const
{
    static stats::Counter &stat_analyses = stats::counter(
        "sta.analyses", "full STA analyses performed");
    OTFT_TRACE_SCOPE("sta.analyze");
    ++stat_analyses;

    Propagation p = propagate(nl);
    const liberty::StdCell &dff_cell = *cellOf(GateKind::Dff);

    StaResult result;
    GateId worst_endpoint = netlist::nullGate;
    double worst_required = 0.0;

    for (GateId id : nl.dffs()) {
        const Gate &gate = nl.gate(id);
        const std::size_t d = static_cast<std::size_t>(gate.fanin[0]);
        if (p.arrival[d] < 0.0)
            continue;
        // Capture at the D pin: data arrival + net wire + setup.
        const double t =
            p.arrival[d] + p.netWireDelay[d] + dff_cell.flop.setup;
        if (t > worst_required) {
            worst_required = t;
            worst_endpoint = gate.fanin[0];
        }
        result.worstArrival = std::max(result.worstArrival, p.arrival[d]);
    }

    const double out_extra =
        config_.registerOutputs ? dff_cell.flop.setup : 0.0;
    for (const auto &port : nl.outputs()) {
        const std::size_t g = static_cast<std::size_t>(port.gate);
        if (p.arrival[g] < 0.0)
            continue;
        const double t = p.arrival[g] + out_extra;
        if (t > worst_required) {
            worst_required = t;
            worst_endpoint = port.gate;
        }
        result.worstArrival = std::max(result.worstArrival, p.arrival[g]);
    }

    const double margin =
        config_.wireEnabled
            ? library.clockMargin()
            : library.clockMargin() * jitterMarginFraction;
    result.minClockPeriod = worst_required + margin;
    result.maxFrequency =
        result.minClockPeriod > 0.0 ? 1.0 / result.minClockPeriod : 0.0;

    // --- Critical path walk-back.
    double wire_sum = 0.0;
    for (GateId id = worst_endpoint; id != netlist::nullGate;
         id = p.criticalPred[static_cast<std::size_t>(id)]) {
        result.criticalPath.push_back(id);
        wire_sum += p.netWireDelay[static_cast<std::size_t>(id)];
    }
    result.criticalWireDelay = wire_sum;

    // --- Area and leakage.
    for (const Gate &gate : nl.gates()) {
        const liberty::StdCell *cell = cellOf(gate.kind);
        if (!cell)
            continue;
        result.area += cell->area;
        result.leakage += cell->leakage;
        ++result.cellCount;
        if (gate.kind == GateKind::Dff)
            ++result.flopCount;
    }
    if (arrival)
        *arrival = std::move(p.arrival);
    return result;
}

} // namespace otft::sta
