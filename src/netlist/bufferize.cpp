#include "netlist/bufferize.hpp"

#include <algorithm>
#include <memory>

#include "util/logging.hpp"
#include "util/stats_registry.hpp"

namespace otft::netlist {

namespace {

/**
 * Balanced buffer tree for one source with a known sink count: the
 * frontier is expanded level by level (each node spawning up to
 * `max_fanout` inverter-pair buffers) until it can serve every sink
 * with at most `max_fanout` sinks per node, then sinks are dealt
 * round-robin.
 */
class DriveTree
{
  public:
    DriveTree(Netlist &out, GateId root, int sink_count, int max_fanout)
    {
        std::vector<GateId> frontier = {root};
        const std::size_t sinks = static_cast<std::size_t>(sink_count);
        const std::size_t max_fo = static_cast<std::size_t>(max_fanout);
        while (frontier.size() * max_fo < sinks) {
            std::vector<GateId> next;
            next.reserve(frontier.size() * max_fo);
            for (GateId node : frontier) {
                for (std::size_t k = 0; k < max_fo; ++k) {
                    next.push_back(out.addGate(
                        GateKind::Inv,
                        out.addGate(GateKind::Inv, node)));
                }
            }
            frontier = std::move(next);
        }
        points = std::move(frontier);
    }

    /** @return a drive point for the next sink (round-robin). */
    GateId
    next()
    {
        const GateId g = points[cursor];
        cursor = (cursor + 1) % points.size();
        return g;
    }

  private:
    std::vector<GateId> points;
    std::size_t cursor = 0;
};

} // namespace

Netlist
bufferize(const Netlist &nl, int max_fanout)
{
    static stats::Counter &stat_runs = stats::counter(
        "netlist.bufferize.runs", "fanout-buffering passes");
    static stats::Counter &stat_buffers = stats::counter(
        "netlist.buffers.inserted",
        "inverter-pair buffers added by fanout trees");
    if (max_fanout < 2)
        fatal("bufferize: max_fanout must be >= 2");
    ++stat_runs;
    const std::size_t gates_before = nl.numGates();

    // Original sink counts (gate fanins plus output ports).
    const std::size_t n = nl.numGates();
    std::vector<int> sink_count(n, 0);
    for (const Gate &gate : nl.gates()) {
        const int fan_in = fanInOf(gate.kind) +
                           (gate.kind == GateKind::Dff ? 1 : 0);
        for (int k = 0; k < fan_in; ++k)
            if (gate.fanin[static_cast<std::size_t>(k)] != nullGate)
                ++sink_count[static_cast<std::size_t>(
                    gate.fanin[static_cast<std::size_t>(k)])];
    }
    for (const auto &port : nl.outputs())
        ++sink_count[static_cast<std::size_t>(port.gate)];

    Netlist out;
    std::vector<GateId> remap(n, nullGate);
    std::vector<std::unique_ptr<DriveTree>> trees(n);

    auto drive = [&](GateId old_src) -> GateId {
        const std::size_t s = static_cast<std::size_t>(old_src);
        if (!trees[s]) {
            trees[s] = std::make_unique<DriveTree>(
                out, remap[s], sink_count[s], max_fanout);
        }
        return trees[s]->next();
    };

    std::size_t input_idx = 0;
    for (std::size_t g = 0; g < n; ++g) {
        const Gate &gate = nl.gates()[g];
        switch (gate.kind) {
          case GateKind::Input:
            remap[g] = out.addInput(nl.inputNames()[input_idx++]);
            break;
          case GateKind::Const0:
            remap[g] = out.constant(false);
            break;
          case GateKind::Const1:
            remap[g] = out.constant(true);
            break;
          case GateKind::Dff:
            remap[g] = out.addDff(drive(gate.fanin[0]));
            break;
          default: {
            const int fan_in = fanInOf(gate.kind);
            GateId mapped[3] = {nullGate, nullGate, nullGate};
            for (int k = 0; k < fan_in; ++k)
                mapped[k] =
                    drive(gate.fanin[static_cast<std::size_t>(k)]);
            remap[g] =
                out.addGate(gate.kind, mapped[0], mapped[1], mapped[2]);
            break;
          }
        }
    }

    for (const auto &port : nl.outputs())
        out.addOutput(port.name, drive(port.gate));
    // Every added gate beyond the remapped originals is half of an
    // inverter-pair buffer.
    stat_buffers += (out.numGates() - gates_before) / 2;
    return out;
}

} // namespace otft::netlist
