/**
 * @file
 * Structural netlists of the superscalar pipeline regions.
 *
 * Each region of the AnyCore-style pipeline is generated as a
 * combinational block whose size scales with the core's width
 * parameters the same way the synthesized RTL does:
 *
 *   fetch     next-PC adder, BTB tag match, target select, and
 *             per-slot alignment muxes (x fetchWidth)
 *   decode    per-slot opcode decoders and control signal logic
 *   rename    intra-group dependency cross-checks (x fetchWidth^2),
 *             map-table reads, and allocation decoders
 *   dispatch  IQ free-entry arbiters and entry write selects
 *   issue     wakeup tag CAM (iqSize x 2 x backendWidth comparators)
 *             and per-pipe age-ordered select trees
 *   regread   register file read port mux trees (2 per pipe)
 *   execute   full bypass network (sources x results) plus the simple
 *             ALU (adder, logic unit, shifter, comparator)
 *   retire    ROB commit selection and exception priority logic
 *
 * The complex ALU (pipelined multiplier + stallable divider) is
 * generated separately (buildComplexAlu) because its pipeline depth
 * is its own design axis (paper Fig. 12), and so is the wakeup-select
 * loop (buildWakeupLoop), which floors the issue stage period however
 * deep that region is cut. The bypass network's forwarding loop needs
 * no floor of its own: it is a one-hot mux a few gates deep, always
 * well inside the execute stage's own period.
 *
 * No builder reads a technology library, so a block's gate netlist is
 * the same under every library and STA set-up; only its timing
 * differs. regionNetlist(), wakeupLoopNetlist() and
 * complexAluNetlist() therefore hand out each bufferized block from
 * one process-wide, compute-once table: the first caller of a key
 * builds it (a `synth.block.build` span), concurrent callers of the
 * same key wait for that build, and every later caller gets the same
 * netlist at the same address. Entries are pure functions of their
 * keys, so they are never evicted and live until the process exits.
 */

#ifndef OTFT_CORE_BLOCKS_HPP
#define OTFT_CORE_BLOCKS_HPP

#include <array>

#include "arch/config.hpp"
#include "netlist/netlist.hpp"

namespace otft::core {

/** Datapath width of the synthesized blocks, bits. */
inline constexpr int dataWidth = 32;

/** Physical register file entries modeled in regread. */
inline constexpr int physRegs = 64;

/** Build the combinational block of one pipeline region. */
netlist::Netlist buildRegionBlock(arch::Region region,
                                  const arch::CoreConfig &config);

/**
 * {region, fetchWidth, robSize, iqSize, backendWidth, aluPipes}, with
 * every field the region's builder does not read set to zero.
 */
using RegionBlockKey = std::array<int, 6>;

/**
 * The configuration fields buildRegionBlock(region, config) reads:
 * two configurations with equal keys build gate-for-gate identical
 * blocks, so the key memoizes a block across design points (a
 * front-end block depends only on front-end fields, a back-end block
 * only on back-end ones). The wakeup loop reads a subset of the Issue
 * key.
 */
RegionBlockKey regionBlockKey(arch::Region region,
                              const arch::CoreConfig &config);

/**
 * Build the complex ALU: a dataWidth x dataWidth multiplier plus a
 * stallable non-restoring divider array computing `divider_rows`
 * quotient bits per pass.
 */
netlist::Netlist buildComplexAlu(int divider_rows = 2);

/**
 * The wakeup-select loop: one result tag broadcast to every IQ
 * entry's comparators, the ready AND, and the select arbiter with its
 * grant gating. This loop must close in a single cycle for
 * back-to-back issue of dependent operations (Palacharla/Jouppi), so
 * it cannot be pipelined away: it floors the issue stage period no
 * matter how many stages the region is cut into.
 */
netlist::Netlist buildWakeupLoop(const arch::CoreConfig &config);

/** Fanout limit the shared blocks are bufferized to. */
inline constexpr int blockMaxFanout = 6;

/**
 * buildRegionBlock(region, config) bufferized to blockMaxFanout, from
 * the process-wide table, keyed by regionBlockKey(region, config).
 * Safe to call concurrently.
 */
const netlist::Netlist &regionNetlist(arch::Region region,
                                      const arch::CoreConfig &config);

/**
 * buildWakeupLoop(config) bufferized to blockMaxFanout, from the
 * process-wide table, keyed by the Issue block key. Safe to call
 * concurrently.
 */
const netlist::Netlist &wakeupLoopNetlist(const arch::CoreConfig &config);

/**
 * buildComplexAlu() bufferized to blockMaxFanout, from the
 * process-wide table. Safe to call concurrently.
 */
const netlist::Netlist &complexAluNetlist();

/**
 * Sequential-state bits of the core's structures (ROB, IQ, LSQ,
 * physical register file, rename map, predictor tables are SRAM and
 * excluded). Charged as DFF area on top of the region logic.
 */
std::size_t storageBits(const arch::CoreConfig &config);

} // namespace otft::core

#endif // OTFT_CORE_BLOCKS_HPP
