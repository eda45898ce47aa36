#include "netlist/netlist.hpp"

#include <algorithm>

#include "util/logging.hpp"
#include "util/stats_registry.hpp"

namespace otft::netlist {

int
fanInOf(GateKind kind)
{
    switch (kind) {
      case GateKind::Input:
      case GateKind::Const0:
      case GateKind::Const1:
        return 0;
      case GateKind::Inv:
      case GateKind::Dff:
        return 1;
      case GateKind::Nand2:
      case GateKind::Nor2:
        return 2;
      case GateKind::Nand3:
      case GateKind::Nor3:
        return 3;
    }
    return 0;
}

const char *
cellNameOf(GateKind kind)
{
    switch (kind) {
      case GateKind::Inv:
        return "inv";
      case GateKind::Nand2:
        return "nand2";
      case GateKind::Nand3:
        return "nand3";
      case GateKind::Nor2:
        return "nor2";
      case GateKind::Nor3:
        return "nor3";
      case GateKind::Dff:
        return "dff";
      default:
        return nullptr;
    }
}

std::size_t
Netlist::checked(GateId id) const
{
    if (id < 0 || static_cast<std::size_t>(id) >= gates_.size())
        panic("Netlist: invalid gate id ", id);
    return static_cast<std::size_t>(id);
}

GateId
Netlist::addInput(const std::string &name)
{
    Gate g;
    g.kind = GateKind::Input;
    gates_.push_back(g);
    const GateId id = static_cast<GateId>(gates_.size() - 1);
    inputs_.push_back(id);
    inputNames_.push_back(name);
    return id;
}

GateId
Netlist::constant(bool value)
{
    Gate g;
    g.kind = value ? GateKind::Const1 : GateKind::Const0;
    gates_.push_back(g);
    return static_cast<GateId>(gates_.size() - 1);
}

GateId
Netlist::addGate(GateKind kind, GateId a, GateId b, GateId c)
{
    static stats::Counter &stat_gates = stats::counter(
        "netlist.gates.created", "combinational gates instantiated");
    ++stat_gates;
    const int fan_in = fanInOf(kind);
    if (fan_in == 0 || kind == GateKind::Dff)
        panic("Netlist::addGate: not a combinational cell kind");
    Gate g;
    g.kind = kind;
    g.fanin = {a, b, c};
    const GateId args[3] = {a, b, c};
    for (int i = 0; i < fan_in; ++i)
        checked(args[i]);
    for (int i = fan_in; i < 3; ++i)
        if (args[i] != nullGate)
            panic("Netlist::addGate: too many fanins for cell");
    gates_.push_back(g);
    return static_cast<GateId>(gates_.size() - 1);
}

GateId
Netlist::addDff(GateId d)
{
    static stats::Counter &stat_flops = stats::counter(
        "netlist.flops.created", "D flip-flops instantiated");
    ++stat_flops;
    checked(d);
    Gate g;
    g.kind = GateKind::Dff;
    g.fanin = {d, nullGate, nullGate};
    gates_.push_back(g);
    const GateId id = static_cast<GateId>(gates_.size() - 1);
    dffs_.push_back(id);
    return id;
}

void
Netlist::addOutput(const std::string &name, GateId gate)
{
    checked(gate);
    outputs_.push_back({name, gate});
}

std::size_t
Netlist::countKind(GateKind kind) const
{
    return static_cast<std::size_t>(
        std::count_if(gates_.begin(), gates_.end(),
                      [&](const Gate &g) { return g.kind == kind; }));
}

FanoutTable
Netlist::fanouts() const
{
    // Two passes over the fanin pins: count each driver's sinks, then
    // fill. Visiting sinks in gate-id order keeps every row ascending.
    const auto for_each_pin = [&](auto &&visit) {
        for (std::size_t i = 0; i < gates_.size(); ++i) {
            const Gate &g = gates_[i];
            // fanInOf(Dff) is 1, its D pin.
            const int fan_in = fanInOf(g.kind);
            for (int k = 0; k < fan_in; ++k) {
                const GateId driver = g.fanin[static_cast<std::size_t>(k)];
                if (driver != nullGate)
                    visit(static_cast<std::size_t>(driver),
                          static_cast<GateId>(i));
            }
        }
    };
    FanoutTable table;
    table.offsets.assign(gates_.size() + 1, 0);
    for_each_pin([&](std::size_t driver, GateId) {
        ++table.offsets[driver + 1];
    });
    for (std::size_t g = 0; g < gates_.size(); ++g)
        table.offsets[g + 1] += table.offsets[g];
    table.sinks.resize(table.offsets.back());
    std::vector<std::uint32_t> fill(table.offsets.begin(),
                                    table.offsets.end() - 1);
    for_each_pin([&](std::size_t driver, GateId sink) {
        table.sinks[fill[driver]++] = sink;
    });
    return table;
}

std::vector<int>
Netlist::levels() const
{
    std::vector<int> level(gates_.size(), 0);
    for (std::size_t i = 0; i < gates_.size(); ++i) {
        const Gate &g = gates_[i];
        if (g.kind == GateKind::Dff)
            continue; // DFF output starts a new level-0 region
        const int fan_in = fanInOf(g.kind);
        int lv = 0;
        for (int k = 0; k < fan_in; ++k)
            lv = std::max(
                lv, level[static_cast<std::size_t>(
                        g.fanin[static_cast<std::size_t>(k)])] + 1);
        level[i] = lv;
    }
    return level;
}

int
Netlist::depth() const
{
    const auto lv = levels();
    return lv.empty() ? 0 : *std::max_element(lv.begin(), lv.end());
}

std::vector<bool>
Netlist::evaluate(const std::vector<bool> &input_values,
                  const std::vector<bool> &state,
                  std::vector<bool> *next_state) const
{
    if (input_values.size() != inputs_.size())
        fatal("Netlist::evaluate: expected ", inputs_.size(),
              " inputs, got ", input_values.size());
    if (!state.empty() && state.size() != dffs_.size())
        fatal("Netlist::evaluate: expected ", dffs_.size(),
              " state bits, got ", state.size());

    std::vector<bool> value(gates_.size(), false);
    std::size_t input_idx = 0;
    std::size_t dff_idx = 0;
    for (std::size_t i = 0; i < gates_.size(); ++i) {
        const Gate &g = gates_[i];
        auto in = [&](int k) {
            return value[static_cast<std::size_t>(
                g.fanin[static_cast<std::size_t>(k)])];
        };
        switch (g.kind) {
          case GateKind::Input:
            value[i] = input_values[input_idx++];
            break;
          case GateKind::Const0:
            value[i] = false;
            break;
          case GateKind::Const1:
            value[i] = true;
            break;
          case GateKind::Inv:
            value[i] = !in(0);
            break;
          case GateKind::Nand2:
            value[i] = !(in(0) && in(1));
            break;
          case GateKind::Nand3:
            value[i] = !(in(0) && in(1) && in(2));
            break;
          case GateKind::Nor2:
            value[i] = !(in(0) || in(1));
            break;
          case GateKind::Nor3:
            value[i] = !(in(0) || in(1) || in(2));
            break;
          case GateKind::Dff:
            value[i] = state.empty() ? false : state[dff_idx];
            ++dff_idx;
            break;
        }
    }
    if (next_state) {
        next_state->clear();
        for (GateId d : dffs_)
            next_state->push_back(value[static_cast<std::size_t>(
                gates_[static_cast<std::size_t>(d)].fanin[0])]);
    }
    return value;
}

// ---------------------------------------------------------------------
// NetBuilder

GateId
NetBuilder::notGate(GateId a)
{
    return nl.addGate(GateKind::Inv, a);
}

GateId
NetBuilder::nand2(GateId a, GateId b)
{
    return nl.addGate(GateKind::Nand2, a, b);
}

GateId
NetBuilder::nand3(GateId a, GateId b, GateId c)
{
    return nl.addGate(GateKind::Nand3, a, b, c);
}

GateId
NetBuilder::nor2(GateId a, GateId b)
{
    return nl.addGate(GateKind::Nor2, a, b);
}

GateId
NetBuilder::nor3(GateId a, GateId b, GateId c)
{
    return nl.addGate(GateKind::Nor3, a, b, c);
}

GateId
NetBuilder::andGate(GateId a, GateId b)
{
    return notGate(nand2(a, b));
}

GateId
NetBuilder::orGate(GateId a, GateId b)
{
    return notGate(nor2(a, b));
}

GateId
NetBuilder::and3(GateId a, GateId b, GateId c)
{
    return notGate(nand3(a, b, c));
}

GateId
NetBuilder::or3(GateId a, GateId b, GateId c)
{
    return notGate(nor3(a, b, c));
}

GateId
NetBuilder::xorGate(GateId a, GateId b)
{
    // Four-NAND XOR.
    const GateId m = nand2(a, b);
    return nand2(nand2(a, m), nand2(b, m));
}

GateId
NetBuilder::xnorGate(GateId a, GateId b)
{
    return notGate(xorGate(a, b));
}

GateId
NetBuilder::majority(GateId a, GateId b, GateId c)
{
    return nand3(nand2(a, b), nand2(a, c), nand2(b, c));
}

GateId
NetBuilder::xor3(GateId a, GateId b, GateId c)
{
    return xorGate(xorGate(a, b), c);
}

GateId
NetBuilder::mux(GateId sel, GateId hi, GateId lo)
{
    const GateId nsel = notGate(sel);
    return nand2(nand2(hi, sel), nand2(lo, nsel));
}

std::vector<GateId>
NetBuilder::inputBus(const std::string &name, int width)
{
    std::vector<GateId> bus;
    bus.reserve(static_cast<std::size_t>(width));
    for (int i = 0; i < width; ++i)
        bus.push_back(nl.addInput(name + "[" + std::to_string(i) + "]"));
    return bus;
}

void
NetBuilder::outputBus(const std::string &name,
                      const std::vector<GateId> &bus)
{
    for (std::size_t i = 0; i < bus.size(); ++i)
        nl.addOutput(name + "[" + std::to_string(i) + "]", bus[i]);
}

std::vector<GateId>
NetBuilder::dffBus(const std::vector<GateId> &bus)
{
    std::vector<GateId> out;
    out.reserve(bus.size());
    for (GateId g : bus)
        out.push_back(nl.addDff(g));
    return out;
}

} // namespace otft::netlist
