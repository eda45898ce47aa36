#include "sta/power.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"

namespace otft::sta {

using netlist::Gate;
using netlist::GateId;
using netlist::GateKind;
using netlist::Netlist;

namespace {

/** Toggle probability assumed at primary inputs per cycle. */
constexpr double inputActivity = 0.2;

} // namespace

PowerEngine::Activities
PowerEngine::propagate(const Netlist &nl) const
{
    const std::size_t n = nl.numGates();
    Activities act;
    act.one.assign(n, 0.0);
    act.toggle.assign(n, 0.0);

    for (std::size_t g = 0; g < n; ++g) {
        const Gate &gate = nl.gates()[g];
        auto p1 = [&](int k) {
            return act.one[static_cast<std::size_t>(
                gate.fanin[static_cast<std::size_t>(k)])];
        };
        auto tg = [&](int k) {
            return act.toggle[static_cast<std::size_t>(
                gate.fanin[static_cast<std::size_t>(k)])];
        };

        switch (gate.kind) {
          case GateKind::Input:
            act.one[g] = 0.5;
            act.toggle[g] = inputActivity;
            break;
          case GateKind::Const0:
            act.one[g] = 0.0;
            break;
          case GateKind::Const1:
            act.one[g] = 1.0;
            break;
          case GateKind::Inv:
          case GateKind::Dff:
            act.one[g] = gate.kind == GateKind::Inv ? 1.0 - p1(0)
                                                    : p1(0);
            act.toggle[g] = tg(0);
            break;
          case GateKind::Nand2: {
            const double and_p = p1(0) * p1(1);
            act.one[g] = 1.0 - and_p;
            // Output toggles when the AND changes; approximate with
            // sensitized input toggles.
            act.toggle[g] =
                std::min(1.0, tg(0) * p1(1) + tg(1) * p1(0));
            break;
          }
          case GateKind::Nand3: {
            const double and_p = p1(0) * p1(1) * p1(2);
            act.one[g] = 1.0 - and_p;
            act.toggle[g] = std::min(
                1.0, tg(0) * p1(1) * p1(2) + tg(1) * p1(0) * p1(2) +
                         tg(2) * p1(0) * p1(1));
            break;
          }
          case GateKind::Nor2: {
            const double or_p = 1.0 - (1.0 - p1(0)) * (1.0 - p1(1));
            act.one[g] = 1.0 - or_p;
            act.toggle[g] = std::min(
                1.0, tg(0) * (1.0 - p1(1)) + tg(1) * (1.0 - p1(0)));
            break;
          }
          case GateKind::Nor3: {
            const double or_p = 1.0 - (1.0 - p1(0)) * (1.0 - p1(1)) *
                                          (1.0 - p1(2));
            act.one[g] = 1.0 - or_p;
            act.toggle[g] =
                std::min(1.0, tg(0) * (1.0 - p1(1)) * (1.0 - p1(2)) +
                                  tg(1) * (1.0 - p1(0)) *
                                      (1.0 - p1(2)) +
                                  tg(2) * (1.0 - p1(0)) *
                                      (1.0 - p1(1)));
            break;
          }
        }
    }
    return act;
}

PowerReport
PowerEngine::estimate(const Netlist &nl, double frequency) const
{
    if (frequency <= 0.0)
        fatal("PowerEngine: frequency must be positive");

    const Activities act = propagate(nl);
    const auto fanouts = nl.fanouts();
    const double vdd = library.vdd();

    PowerReport report;

    // Static: sum of per-cell static/leakage numbers.
    for (const Gate &gate : nl.gates()) {
        const char *cell_name = netlist::cellNameOf(gate.kind);
        if (cell_name)
            report.staticPower += library.cell(cell_name).leakage;
    }

    // Dynamic: per driven net, 0.5 * C * V^2 * toggles/cycle * f.
    for (std::size_t g = 0; g < nl.numGates(); ++g) {
        if (fanouts[g].empty())
            continue;
        double sink_cap = 0.0;
        for (GateId s : fanouts[g]) {
            const char *cell_name =
                netlist::cellNameOf(nl.gate(s).kind);
            if (cell_name)
                sink_cap += library.cell(cell_name).inputCap;
        }
        const WireEstimate wire = wireModel.estimate(
            static_cast<int>(fanouts[g].size()), sink_cap);
        const double cap = sink_cap + wire.cap;
        report.dynamicPower +=
            0.5 * act.toggle[g] * cap * vdd * vdd * frequency;
    }

    // Clock tree: every flop's clock pin toggles twice per cycle.
    const liberty::StdCell &dff = library.cell("dff");
    const double clock_cap =
        static_cast<double>(nl.dffs().size()) * dff.flop.clockPinCap;
    report.clockPower = clock_cap * vdd * vdd * frequency;

    return report;
}

} // namespace otft::sta
