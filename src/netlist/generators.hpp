/**
 * @file
 * Datapath block generators — the framework's stand-in for the
 * Synopsys DesignWare components the paper synthesizes.
 *
 * All blocks are generated directly in the six-cell vocabulary:
 * ripple-carry and Kogge-Stone adders, a carry-save array multiplier,
 * a non-restoring array divider (the per-pass array of a stallable
 * multi-cycle divider), barrel shifter, comparators, decoders, mux
 * trees, and a priority arbiter (issue-select logic).
 */

#ifndef OTFT_NETLIST_GENERATORS_HPP
#define OTFT_NETLIST_GENERATORS_HPP

#include "netlist/netlist.hpp"

namespace otft::netlist {

/** A little-endian bus of gate ids (bit 0 first). */
using Bus = std::vector<GateId>;

/** Sum and carry-out of an adder. */
struct AdderResult
{
    Bus sum;
    GateId carryOut = nullGate;
};

/** Ripple-carry adder: n-bit, depth O(n), minimal area. */
AdderResult rippleCarryAdder(NetBuilder &b, const Bus &a, const Bus &y,
                             GateId carry_in = nullGate);

/** Kogge-Stone adder: n-bit, depth O(log n), larger area. */
AdderResult koggeStoneAdder(NetBuilder &b, const Bus &a, const Bus &y,
                            GateId carry_in = nullGate);

/**
 * Carry-save array multiplier: a x y, returns the full 2n-bit
 * product. Partial products are reduced row by row in carry-save form
 * with a final Kogge-Stone carry-propagate add.
 */
Bus arrayMultiplier(NetBuilder &b, const Bus &a, const Bus &y);

/** Quotient and remainder of a divider. */
struct DividerResult
{
    Bus quotient;
    Bus remainder;
};

/**
 * Non-restoring array divider: n-bit dividend / n-bit divisor
 * (unsigned). One row per quotient bit, each row a controlled
 * add/subtract through a Kogge-Stone adder. This is the combinational
 * array of one pass of a stallable multi-cycle divider; `rows` limits
 * the quotient bits computed per pass (DesignWare's stallable divider
 * iterates passes).
 */
DividerResult nonRestoringDivider(NetBuilder &b, const Bus &dividend,
                                  const Bus &divisor, int rows);

/** Logical barrel shifter (left when `left`), shift amount bus. */
Bus barrelShifter(NetBuilder &b, const Bus &a, const Bus &amount,
                  bool left);

/** Single-bit equality of two buses (tag comparator). */
GateId equalityComparator(NetBuilder &b, const Bus &a, const Bus &y);

/** a < y unsigned (borrow out of a - y). */
GateId lessThan(NetBuilder &b, const Bus &a, const Bus &y);

/** n-to-2^n one-hot decoder. */
Bus decoder(NetBuilder &b, const Bus &sel);

/** Mux tree: ways[k] selected by one-hot `onehot`. */
Bus onehotMux(NetBuilder &b, const std::vector<Bus> &ways,
              const Bus &onehot);

/** Mux tree with a binary select bus. */
Bus binaryMux(NetBuilder &b, const std::vector<Bus> &ways,
              const Bus &sel);

/** Inclusive parallel-prefix OR: out[i] = OR(in[0..i]), log depth. */
Bus prefixOr(NetBuilder &b, const Bus &in);

/**
 * Phase-optimized inclusive prefix OR: alternates NOR/NAND levels so
 * each prefix level costs one cell instead of an OR's NOR+INV pair —
 * the hand-tuned mapping a custom scheduler macro would use. Output
 * is in true phase.
 */
Bus prefixOrFast(NetBuilder &b, const Bus &in);

/** Inclusive parallel-prefix AND: out[i] = AND(in[0..i]), log depth. */
Bus prefixAnd(NetBuilder &b, const Bus &in);

/**
 * Priority arbiter: grants the lowest-indexed active request,
 * one-hot output, built from a parallel-prefix OR (log depth, as
 * synthesis restructures it). This is the age-ordered issue-select
 * structure of a superscalar scheduler.
 */
Bus priorityArbiter(NetBuilder &b, const Bus &requests);

/** Bitwise ops over buses. */
Bus busAnd(NetBuilder &b, const Bus &a, const Bus &y);
Bus busOr(NetBuilder &b, const Bus &a, const Bus &y);
Bus busXor(NetBuilder &b, const Bus &a, const Bus &y);
Bus busNot(NetBuilder &b, const Bus &a);

} // namespace otft::netlist

#endif // OTFT_NETLIST_GENERATORS_HPP
