/**
 * @file
 * Gate-level netlists over the six-cell library.
 *
 * A netlist is a DAG of gates drawn from exactly the cell set both
 * technology libraries provide: INV, NAND2, NAND3, NOR2, NOR3, DFF —
 * plus primary inputs and constants. Higher-level logic (AND, OR,
 * XOR, MUX, majority) is built by NetBuilder, which performs the
 * technology mapping onto this cell set as it constructs the graph,
 * mirroring how synthesis maps RTL onto the trimmed library.
 */

#ifndef OTFT_NETLIST_NETLIST_HPP
#define OTFT_NETLIST_NETLIST_HPP

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace otft::netlist {

/** Gate handle within one netlist. */
using GateId = std::int32_t;

/** No-gate sentinel. */
inline constexpr GateId nullGate = -1;

/** Gate types. Library cells carry the same names as liberty cells. */
enum class GateKind : std::uint8_t {
    Input,
    Const0,
    Const1,
    Inv,
    Nand2,
    Nand3,
    Nor2,
    Nor3,
    Dff,
};

/** Number of GateKind values. */
inline constexpr std::size_t numGateKinds =
    static_cast<std::size_t>(GateKind::Dff) + 1;

/** @return number of logic inputs for a gate kind. */
int fanInOf(GateKind kind);

/** @return the liberty cell name, or nullptr for non-cells. */
const char *cellNameOf(GateKind kind);

/** One gate instance. */
struct Gate
{
    GateKind kind = GateKind::Input;
    /** Fanin gate ids; unused slots are nullGate. DFF: [0] is D. */
    std::array<GateId, 3> fanin = {nullGate, nullGate, nullGate};
};

/** A named primary output. */
struct OutputPort
{
    std::string name;
    GateId gate = nullGate;
};

/**
 * Fanout table in compressed-sparse-row form: the sinks of gate g are
 * sinks[offsets[g] .. offsets[g + 1]), in ascending gate-id order (a
 * sink that uses the same net on two pins appears twice). Two flat
 * arrays keep the table of a 200k-gate block to two allocations.
 */
struct FanoutTable
{
    std::vector<std::uint32_t> offsets;
    std::vector<GateId> sinks;

    std::span<const GateId>
    operator[](std::size_t g) const
    {
        return {sinks.data() + offsets[g], sinks.data() + offsets[g + 1]};
    }
};

/**
 * The gate-level netlist.
 *
 * Insertion order is topological: every gate's fanins exist when it
 * is added (addGate and addDff check them), so a gate's id is larger
 * than its fanins' ids and a pass that walks ids 0..numGates()-1 sees
 * fanins before fanouts. A DFF's output is a source (its D input is a
 * sink), so sequential netlists keep the order too.
 */
class Netlist
{
  public:
    /** Add a primary input. */
    GateId addInput(const std::string &name);

    /** Add a constant. */
    GateId constant(bool value);

    /** Add a combinational library gate. */
    GateId addGate(GateKind kind, GateId a, GateId b = nullGate,
                   GateId c = nullGate);

    /** Add a D flip-flop capturing `d`. */
    GateId addDff(GateId d);

    /** Mark a gate as a primary output. */
    void addOutput(const std::string &name, GateId gate);

    std::size_t numGates() const { return gates_.size(); }
    const Gate &gate(GateId id) const { return gates_[checked(id)]; }
    const std::vector<Gate> &gates() const { return gates_; }
    const std::vector<OutputPort> &outputs() const { return outputs_; }
    const std::vector<GateId> &inputs() const { return inputs_; }
    const std::vector<std::string> &inputNames() const
    {
        return inputNames_;
    }

    /** Number of instances of each library cell kind. */
    std::size_t countKind(GateKind kind) const;

    /** Fanout gate lists, indexed by gate id (computed on demand). */
    FanoutTable fanouts() const;

    /**
     * Combinational depth of each gate in cell levels (inputs, consts
     * and DFF outputs are level 0).
     */
    std::vector<int> levels() const;

    /** Maximum combinational level in the netlist. */
    int depth() const;

    /**
     * Evaluate the netlist on given input values. Sequential state is
     * evaluated as one cycle: DFFs output `state`, and the returned
     * next-state vector holds their captured D values.
     * @param input_values one bool per primary input
     * @param state current DFF states (empty = all zero)
     * @param next_state out: captured DFF values (may be null)
     * @return values of all gates (indexable by GateId)
     */
    std::vector<bool> evaluate(const std::vector<bool> &input_values,
                               const std::vector<bool> &state = {},
                               std::vector<bool> *next_state =
                                   nullptr) const;

    /** Ids of all DFF gates in insertion order. */
    const std::vector<GateId> &dffs() const { return dffs_; }

  private:
    std::size_t checked(GateId id) const;

    std::vector<Gate> gates_;
    std::vector<GateId> inputs_;
    std::vector<std::string> inputNames_;
    std::vector<OutputPort> outputs_;
    std::vector<GateId> dffs_;
};

/**
 * Mapped-logic construction helpers: composite functions expressed in
 * the six-cell vocabulary. All methods return the gate id of the
 * function output.
 */
class NetBuilder
{
  public:
    explicit NetBuilder(Netlist &netlist) : nl(netlist) {}

    GateId input(const std::string &name) { return nl.addInput(name); }
    GateId constant(bool v) { return nl.constant(v); }
    void output(const std::string &name, GateId g)
    {
        nl.addOutput(name, g);
    }

    GateId notGate(GateId a);
    GateId nand2(GateId a, GateId b);
    GateId nand3(GateId a, GateId b, GateId c);
    GateId nor2(GateId a, GateId b);
    GateId nor3(GateId a, GateId b, GateId c);
    GateId andGate(GateId a, GateId b);
    GateId orGate(GateId a, GateId b);
    GateId and3(GateId a, GateId b, GateId c);
    GateId or3(GateId a, GateId b, GateId c);
    GateId xorGate(GateId a, GateId b);
    GateId xnorGate(GateId a, GateId b);
    /** Majority of three (full-adder carry): NAND3 of pairwise NANDs. */
    GateId majority(GateId a, GateId b, GateId c);
    /** Three-input XOR (full-adder sum). */
    GateId xor3(GateId a, GateId b, GateId c);
    /** 2:1 mux: sel ? hi : lo. */
    GateId mux(GateId sel, GateId hi, GateId lo);
    GateId dff(GateId d) { return nl.addDff(d); }

    /** A bus of named inputs: name[0..width). */
    std::vector<GateId> inputBus(const std::string &name, int width);
    /** Mark a bus as outputs name[0..width). */
    void outputBus(const std::string &name,
                   const std::vector<GateId> &bus);
    /** A register rank over a bus. */
    std::vector<GateId> dffBus(const std::vector<GateId> &bus);

    Netlist &netlist() { return nl; }

  private:
    Netlist &nl;
};

} // namespace otft::netlist

#endif // OTFT_NETLIST_NETLIST_HPP
