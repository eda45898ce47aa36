#include "core/blocks.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "netlist/bufferize.hpp"
#include "netlist/generators.hpp"
#include "util/logging.hpp"
#include "util/memo.hpp"
#include "util/trace.hpp"

namespace otft::core {

using arch::CoreConfig;
using arch::Region;
using netlist::Bus;
using netlist::GateId;
using netlist::NetBuilder;
using netlist::Netlist;

namespace {

int
log2ceil(int v)
{
    int s = 0;
    while ((1 << s) < v)
        ++s;
    return std::max(s, 1);
}

/** Tag width for ROB-sized identifiers. */
int
tagBits(const CoreConfig &config)
{
    return log2ceil(config.robSize);
}

Netlist
buildFetch(const CoreConfig &config)
{
    Netlist nl;
    NetBuilder b(nl);

    const Bus pc = b.inputBus("pc", dataWidth);
    const Bus btb_tag = b.inputBus("btb_tag", 20);
    const Bus btb_target = b.inputBus("btb_target", dataWidth);
    const GateId pred_taken = b.input("pred_taken");

    // Sequential next PC: pc + 4 * fetchWidth.
    Bus increment(dataWidth, b.constant(false));
    const int inc = 4 * config.fetchWidth;
    for (int bit = 0; bit < dataWidth; ++bit)
        if ((inc >> bit) & 1)
            increment[static_cast<std::size_t>(bit)] = b.constant(true);
    const auto seq = netlist::koggeStoneAdder(b, pc, increment);

    // BTB hit: tag match against the PC high bits.
    Bus pc_tag(btb_tag.size());
    for (std::size_t i = 0; i < pc_tag.size(); ++i)
        pc_tag[i] = pc[pc.size() - pc_tag.size() + i];
    const GateId hit = netlist::equalityComparator(b, pc_tag, btb_tag);
    const GateId redirect = b.andGate(hit, pred_taken);

    // Next-PC select.
    Bus next_pc(dataWidth);
    for (int bit = 0; bit < dataWidth; ++bit)
        next_pc[static_cast<std::size_t>(bit)] =
            b.mux(redirect, btb_target[static_cast<std::size_t>(bit)],
                  seq.sum[static_cast<std::size_t>(bit)]);
    b.outputBus("next_pc", next_pc);

    // Per-slot alignment: each fetch slot picks one of 8 cache-line
    // positions.
    const Bus align_sel = b.inputBus("align_sel", 3);
    std::vector<Bus> line(8);
    for (int w = 0; w < 8; ++w)
        line[static_cast<std::size_t>(w)] =
            b.inputBus("line" + std::to_string(w), dataWidth);
    for (int slot = 0; slot < config.fetchWidth; ++slot) {
        const Bus word = netlist::binaryMux(b, line, align_sel);
        b.outputBus("slot" + std::to_string(slot), word);
    }
    return nl;
}

Netlist
buildDecode(const CoreConfig &config)
{
    Netlist nl;
    NetBuilder b(nl);

    for (int slot = 0; slot < config.fetchWidth; ++slot) {
        const std::string tag = std::to_string(slot);
        const Bus opcode = b.inputBus("op" + tag, 6);
        const Bus onehot = netlist::decoder(b, opcode);

        // Control signals: OR-trees over opcode groups of varying
        // size (the AND-OR plane of a decoded control ROM).
        for (int sig = 0; sig < 12; ++sig) {
            Bus members;
            for (std::size_t w = static_cast<std::size_t>(sig);
                 w < onehot.size();
                 w += static_cast<std::size_t>(3 + sig % 5))
                members.push_back(onehot[w]);
            // OR-reduce.
            while (members.size() > 1) {
                Bus next;
                std::size_t i = 0;
                for (; i + 2 < members.size(); i += 3)
                    next.push_back(b.or3(members[i], members[i + 1],
                                         members[i + 2]));
                if (i + 1 < members.size())
                    next.push_back(b.orGate(members[i], members[i + 1]));
                else if (i < members.size())
                    next.push_back(members[i]);
                members = std::move(next);
            }
            b.output("ctl" + tag + "_" + std::to_string(sig),
                     members[0]);
        }
    }
    return nl;
}

Netlist
buildRename(const CoreConfig &config)
{
    Netlist nl;
    NetBuilder b(nl);
    const int arch_bits = 5;
    const int tag_bits = tagBits(config);

    // Map table read: one mux tree per source of each slot.
    std::vector<Bus> map_entries(32);
    for (int e = 0; e < 32; ++e)
        map_entries[static_cast<std::size_t>(e)] =
            b.inputBus("map" + std::to_string(e), tag_bits);

    std::vector<Bus> dests;
    for (int slot = 0; slot < config.fetchWidth; ++slot) {
        const std::string tag = std::to_string(slot);
        const Bus src1 = b.inputBus("s" + tag + "a", arch_bits);
        const Bus src2 = b.inputBus("s" + tag + "b", arch_bits);
        const Bus dest = b.inputBus("d" + tag, arch_bits);
        dests.push_back(dest);

        const Bus map_tag1 = netlist::binaryMux(b, map_entries, src1);
        const Bus map_tag2 = netlist::binaryMux(b, map_entries, src2);

        // Intra-group dependency cross-check: all earlier slots'
        // destinations are compared in parallel; the youngest match
        // wins via a priority select (log depth, width-proportional
        // area), falling back to the map-table tag.
        auto cross_check = [&](const Bus &src, const Bus &map_tag,
                               const char *suffix) {
            if (slot == 0)
                return map_tag;
            Bus match(static_cast<std::size_t>(slot));
            std::vector<Bus> prev_tags;
            for (int prev = 0; prev < slot; ++prev) {
                // Youngest-first order for the priority select.
                const int idx = slot - 1 - prev;
                match[static_cast<std::size_t>(prev)] =
                    netlist::equalityComparator(
                        b, src, dests[static_cast<std::size_t>(idx)]);
                prev_tags.push_back(
                    b.inputBus("ptag" + tag + suffix +
                               std::to_string(idx), tag_bits));
            }
            const Bus grant = netlist::priorityArbiter(b, match);
            const Bus forwarded =
                netlist::onehotMux(b, prev_tags, grant);
            const GateId any = b.notGate(
                netlist::prefixOr(b, match).back());
            Bus out(map_tag.size());
            for (std::size_t bit = 0; bit < map_tag.size(); ++bit)
                out[bit] = b.mux(any, map_tag[bit], forwarded[bit]);
            return out;
        };
        const Bus tag1 = cross_check(src1, map_tag1, "a");
        const Bus tag2 = cross_check(src2, map_tag2, "b");
        b.outputBus("t" + tag + "a", tag1);
        b.outputBus("t" + tag + "b", tag2);

        // Map write decoder.
        const Bus write_sel = netlist::decoder(b, dest);
        b.outputBus("wr" + tag, write_sel);
    }
    return nl;
}

Netlist
buildDispatch(const CoreConfig &config)
{
    Netlist nl;
    NetBuilder b(nl);

    // Free-entry arbitration: each dispatch slot claims one of the
    // IQ's free entries via a priority arbiter over the free list.
    const int iq = std::min(config.iqSize, 32);
    const Bus free_list = b.inputBus("free", iq);

    std::vector<Bus> grants;
    Bus remaining = free_list;
    for (int slot = 0; slot < config.fetchWidth; ++slot) {
        const Bus grant = netlist::priorityArbiter(b, remaining);
        grants.push_back(grant);
        b.outputBus("alloc" + std::to_string(slot), grant);
        // Knock out the granted entry for the next slot.
        Bus next(remaining.size());
        for (std::size_t i = 0; i < remaining.size(); ++i)
            next[i] = b.andGate(remaining[i], b.notGate(grant[i]));
        remaining = std::move(next);
    }

    // IQ entry write ports: each entry muxes its payload from the
    // slot whose allocation granted it — one write-select term per
    // dispatch slot (entry write logic scales with front-end width).
    const int payload_bits = 20;
    std::vector<Bus> payloads;
    for (int slot = 0; slot < config.fetchWidth; ++slot)
        payloads.push_back(
            b.inputBus("pay" + std::to_string(slot), payload_bits));
    for (int e = 0; e < iq; ++e) {
        Bus sel(static_cast<std::size_t>(config.fetchWidth));
        for (int slot = 0; slot < config.fetchWidth; ++slot)
            sel[static_cast<std::size_t>(slot)] =
                grants[static_cast<std::size_t>(slot)]
                      [static_cast<std::size_t>(e)];
        const Bus data = netlist::onehotMux(b, payloads, sel);
        b.outputBus("wdata" + std::to_string(e), data);
    }
    return nl;
}

Netlist
buildIssue(const CoreConfig &config)
{
    Netlist nl;
    NetBuilder b(nl);
    const int tag_bits = tagBits(config);
    const int iq = std::min(config.iqSize, 32);
    const int pipes = config.backendWidth();

    // Wakeup CAM: every IQ entry compares both source tags against
    // every result broadcast bus; the per-entry match OR is a tree.
    std::vector<Bus> result_tags;
    for (int p = 0; p < pipes; ++p)
        result_tags.push_back(
            b.inputBus("rtag" + std::to_string(p), tag_bits));

    auto or_tree = [&](Bus terms) {
        while (terms.size() > 1) {
            Bus next;
            std::size_t i = 0;
            for (; i + 2 < terms.size(); i += 3)
                next.push_back(
                    b.or3(terms[i], terms[i + 1], terms[i + 2]));
            if (i + 1 < terms.size())
                next.push_back(b.orGate(terms[i], terms[i + 1]));
            else if (i < terms.size())
                next.push_back(terms[i]);
            terms = std::move(next);
        }
        return terms[0];
    };

    Bus request(static_cast<std::size_t>(iq));
    Bus is_alu(static_cast<std::size_t>(iq));
    Bus is_mem(static_cast<std::size_t>(iq));
    Bus is_branch(static_cast<std::size_t>(iq));
    for (int e = 0; e < iq; ++e) {
        const std::string tag = std::to_string(e);
        const Bus src1 = b.inputBus("q" + tag + "a", tag_bits);
        const Bus src2 = b.inputBus("q" + tag + "b", tag_bits);
        Bus match1 = {b.input("r" + tag + "a")};
        Bus match2 = {b.input("r" + tag + "b")};
        for (int p = 0; p < pipes; ++p) {
            match1.push_back(netlist::equalityComparator(
                b, src1, result_tags[static_cast<std::size_t>(p)]));
            match2.push_back(netlist::equalityComparator(
                b, src2, result_tags[static_cast<std::size_t>(p)]));
        }
        request[static_cast<std::size_t>(e)] =
            b.andGate(or_tree(match1), or_tree(match2));
        is_alu[static_cast<std::size_t>(e)] = b.input("ka" + tag);
        is_mem[static_cast<std::size_t>(e)] = b.input("km" + tag);
        is_branch[static_cast<std::size_t>(e)] = b.input("kb" + tag);
    }

    std::vector<Bus> payload(static_cast<std::size_t>(iq));
    for (int e = 0; e < iq; ++e)
        payload[static_cast<std::size_t>(e)] =
            b.inputBus("ptag" + std::to_string(e), tag_bits);

    // Per-class selection: memory and branch pipes each pick from
    // their own ready set in parallel; the ALU pipes knock out among
    // themselves only (real schedulers select per pipe class, so
    // select depth grows with the ALU pipe count, not total width).
    auto select_pipe = [&](const Bus &reqs, const std::string &name) {
        const Bus grant = netlist::priorityArbiter(b, reqs);
        b.outputBus("grant_" + name, grant);
        const Bus issued = netlist::onehotMux(b, payload, grant);
        b.outputBus("issue_" + name, issued);
        return grant;
    };

    select_pipe(netlist::busAnd(b, request, is_mem), "mem");
    select_pipe(netlist::busAnd(b, request, is_branch), "br");

    // ALU multi-grant: partitioned selection — entry e belongs to
    // pipe e mod aluPipes, each pipe arbitrating its own partition in
    // parallel (the standard way wide schedulers avoid a serial
    // knockout chain; select area scales with pipe count while depth
    // stays logarithmic).
    const Bus alu_req = netlist::busAnd(b, request, is_alu);
    for (int p = 0; p < config.aluPipes; ++p) {
        Bus part;
        std::vector<std::size_t> part_idx;
        for (std::size_t e = static_cast<std::size_t>(p);
             e < alu_req.size();
             e += static_cast<std::size_t>(config.aluPipes)) {
            part.push_back(alu_req[e]);
            part_idx.push_back(e);
        }
        const Bus grant = netlist::priorityArbiter(b, part);
        std::vector<Bus> part_payload;
        for (std::size_t e : part_idx)
            part_payload.push_back(payload[e]);
        const std::string name = "alu" + std::to_string(p);
        b.outputBus("grant_" + name, grant);
        b.outputBus("issue_" + name,
                    netlist::onehotMux(b, part_payload, grant));
    }
    return nl;
}

Netlist
buildRegRead(const CoreConfig &config)
{
    Netlist nl;
    NetBuilder b(nl);
    const int sel_bits = log2ceil(physRegs);

    std::vector<Bus> regs(static_cast<std::size_t>(physRegs));
    for (int r = 0; r < physRegs; ++r)
        regs[static_cast<std::size_t>(r)] =
            b.inputBus("r" + std::to_string(r), dataWidth);

    // Two read ports per execution pipe.
    const int ports = 2 * config.backendWidth();
    for (int port = 0; port < ports; ++port) {
        const Bus sel =
            b.inputBus("sel" + std::to_string(port), sel_bits);
        const Bus value = netlist::binaryMux(b, regs, sel);
        b.outputBus("port" + std::to_string(port), value);
    }
    return nl;
}

Netlist
buildExecute(const CoreConfig &config)
{
    Netlist nl;
    NetBuilder b(nl);
    const int tag_bits = tagBits(config);
    const int pipes = config.backendWidth();

    // Result buses from every pipe (value + tag).
    std::vector<Bus> result_vals, result_tags;
    for (int p = 0; p < pipes; ++p) {
        result_vals.push_back(
            b.inputBus("rv" + std::to_string(p), dataWidth));
        result_tags.push_back(
            b.inputBus("rt" + std::to_string(p), tag_bits));
    }

    // Bypass for both sources of one ALU pipe (the others are
    // identical copies; one per ALU pipe is generated). The source
    // select is a one-hot mux tree over {regfile, result buses} —
    // log-depth, as a synthesized bypass network is.
    auto bypass_source = [&](const std::string &name) {
        const Bus regfile_val = b.inputBus(name + "_rf", dataWidth);
        const Bus need_tag = b.inputBus(name + "_tag", tag_bits);
        Bus onehot(static_cast<std::size_t>(pipes) + 1);
        std::vector<Bus> sources;
        sources.push_back(regfile_val);
        Bus any_match;
        for (int p = 0; p < pipes; ++p) {
            const GateId match = netlist::equalityComparator(
                b, need_tag, result_tags[static_cast<std::size_t>(p)]);
            onehot[static_cast<std::size_t>(p) + 1] = match;
            any_match.push_back(match);
            sources.push_back(
                result_vals[static_cast<std::size_t>(p)]);
        }
        // Regfile selected when no result matches.
        Bus nmatch(any_match.size());
        for (std::size_t i = 0; i < any_match.size(); ++i)
            nmatch[i] = b.notGate(any_match[i]);
        GateId none = nmatch[0];
        for (std::size_t i = 1; i < nmatch.size(); ++i)
            none = b.andGate(none, nmatch[i]);
        onehot[0] = none;
        return netlist::onehotMux(b, sources, onehot);
    };

    for (int alu = 0; alu < config.aluPipes; ++alu) {
        const std::string tag = std::to_string(alu);
        const Bus op_a = bypass_source("a" + tag);
        const Bus op_b = bypass_source("b" + tag);

        // Simple ALU: add/sub, logic, shift, compare.
        const GateId sub = b.input("sub" + tag);
        Bus b_xor(op_b.size());
        for (std::size_t i = 0; i < op_b.size(); ++i)
            b_xor[i] = b.xorGate(op_b[i], sub);
        const auto sum = netlist::koggeStoneAdder(b, op_a, b_xor, sub);

        const Bus logic_and = netlist::busAnd(b, op_a, op_b);
        const Bus logic_or = netlist::busOr(b, op_a, op_b);
        const Bus logic_xor = netlist::busXor(b, op_a, op_b);

        const Bus shamt = b.inputBus("sh" + tag, 5);
        const Bus shifted = netlist::barrelShifter(b, op_a, shamt,
                                                   false);
        const GateId less = netlist::lessThan(b, op_a, op_b);

        // Function select.
        const Bus fsel = b.inputBus("f" + tag, 3);
        Bus less_bus(dataWidth, b.constant(false));
        less_bus[0] = less;
        const Bus out = netlist::binaryMux(
            b,
            {sum.sum, logic_and, logic_or, logic_xor, shifted,
             less_bus},
            fsel);
        b.outputBus("alu" + tag, out);
    }
    return nl;
}

Netlist
buildRetire(const CoreConfig &config)
{
    Netlist nl;
    NetBuilder b(nl);
    const int window = std::min(config.robSize, 64);

    // Commit-ready scan: oldest block of Done entries, gated by
    // exception priority. Prefix-AND over Done gives the contiguous
    // committable region in log depth.
    const Bus done = b.inputBus("done", window);
    const Bus except = b.inputBus("except", window);
    const Bus first_except = netlist::priorityArbiter(b, except);
    const Bus prior_done = netlist::prefixAnd(b, done);

    Bus commit(static_cast<std::size_t>(window));
    commit[0] = b.andGate(done[0], b.notGate(first_except[0]));
    for (int e = 1; e < window; ++e) {
        const std::size_t i = static_cast<std::size_t>(e);
        commit[i] = b.andGate(
            b.andGate(done[i], prior_done[i - 1]),
            b.notGate(first_except[i]));
    }
    b.outputBus("commit", commit);
    return nl;
}

} // namespace

Netlist
buildRegionBlock(Region region, const CoreConfig &config)
{
    switch (region) {
      case Region::Fetch:
        return buildFetch(config);
      case Region::Decode:
        return buildDecode(config);
      case Region::Rename:
        return buildRename(config);
      case Region::Dispatch:
        return buildDispatch(config);
      case Region::Issue:
        return buildIssue(config);
      case Region::RegRead:
        return buildRegRead(config);
      case Region::Execute:
        return buildExecute(config);
      case Region::Retire:
        return buildRetire(config);
    }
    fatal("buildRegionBlock: bad region");
}

RegionBlockKey
regionBlockKey(Region region, const CoreConfig &config)
{
    const int r = static_cast<int>(region);
    const int fe = config.fetchWidth;
    const int rob = config.robSize;
    const int iq = config.iqSize;
    const int be = config.backendWidth();
    const int alu = config.aluPipes;
    switch (region) {
      case Region::Fetch:
      case Region::Decode:
        return {r, fe, 0, 0, 0, 0};
      case Region::Rename:
        return {r, fe, rob, 0, 0, 0};
      case Region::Dispatch:
        return {r, fe, 0, iq, 0, 0};
      case Region::Issue:
        return {r, 0, rob, iq, be, alu};
      case Region::RegRead:
        return {r, 0, 0, 0, be, 0};
      case Region::Execute:
        return {r, 0, rob, 0, be, alu};
      case Region::Retire:
        return {r, 0, rob, 0, 0, 0};
    }
    fatal("regionBlockKey: bad region");
}

Netlist
buildWakeupLoop(const CoreConfig &config)
{
    Netlist nl;
    NetBuilder b(nl);
    const int tag_bits = tagBits(config);
    const int iq = std::min(config.iqSize, 32);

    // One broadcast tag reaching both comparators of every entry.
    const Bus tag = b.inputBus("tag", tag_bits);
    Bus request(static_cast<std::size_t>(iq));
    for (int e = 0; e < iq; ++e) {
        const std::string n = std::to_string(e);
        const Bus src1 = b.inputBus("q" + n + "a", tag_bits);
        const Bus src2 = b.inputBus("q" + n + "b", tag_bits);
        const GateId m1 = b.orGate(b.input("r" + n + "a"),
                                   netlist::equalityComparator(b, src1,
                                                               tag));
        const GateId m2 = b.orGate(b.input("r" + n + "b"),
                                   netlist::equalityComparator(b, src2,
                                                               tag));
        request[static_cast<std::size_t>(e)] = b.andGate(m1, m2);
    }
    // The grant itself closes the loop: the granted entry's tag
    // drive starts the next broadcast (the payload readout overlaps
    // with the broadcast wire flight). The arbiter prefix uses the
    // phase-optimized mapping of a hand-tuned scheduler macro.
    const Bus blocked = netlist::prefixOrFast(b, request);
    Bus grant(request.size());
    grant[0] = request[0];
    for (std::size_t i = 1; i < request.size(); ++i)
        grant[i] = b.andGate(request[i], b.notGate(blocked[i - 1]));
    b.outputBus("grant", grant);
    return nl;
}

Netlist
buildComplexAlu(int divider_rows)
{
    Netlist nl;
    NetBuilder b(nl);
    const Bus a = b.inputBus("a", dataWidth);
    const Bus y = b.inputBus("y", dataWidth);
    const Bus product = netlist::arrayMultiplier(b, a, y);
    const auto div = netlist::nonRestoringDivider(b, a, y, divider_rows);
    b.outputBus("p", product);
    b.outputBus("q", div.quotient);
    b.outputBus("r", div.remainder);
    return nl;
}

namespace {

/** What a shared-block key builds. */
enum class BlockKind { Region, WakeupLoop, ComplexAlu };

/** The entry of the process-wide block table, built on first use. */
const Netlist &
sharedBlock(BlockKind kind, const RegionBlockKey &key,
            const std::function<Netlist()> &build)
{
    static Memo<std::pair<BlockKind, RegionBlockKey>, Netlist> table;
    return table.get({kind, key}, [&] {
        OTFT_TRACE_SCOPE("synth.block.build");
        return netlist::bufferize(build(), blockMaxFanout);
    });
}

} // namespace

const Netlist &
regionNetlist(Region region, const CoreConfig &config)
{
    return sharedBlock(BlockKind::Region, regionBlockKey(region, config),
                       [&] { return buildRegionBlock(region, config); });
}

const Netlist &
wakeupLoopNetlist(const CoreConfig &config)
{
    return sharedBlock(BlockKind::WakeupLoop,
                       regionBlockKey(Region::Issue, config),
                       [&] { return buildWakeupLoop(config); });
}

const Netlist &
complexAluNetlist()
{
    return sharedBlock(BlockKind::ComplexAlu, {},
                       [] { return buildComplexAlu(); });
}

std::size_t
storageBits(const arch::CoreConfig &config)
{
    const std::size_t tag = static_cast<std::size_t>(
        std::max(7, 1));
    // ROB: ~40 bits of state per entry; IQ: 2 tags + ready bits +
    // payload; LSQ: address + data; PRF: dataWidth per reg; rename
    // map: one tag per arch reg; fetch queue: one instruction per
    // front-end slot per stage.
    const std::size_t rob =
        static_cast<std::size_t>(config.robSize) * 40;
    const std::size_t iq = static_cast<std::size_t>(config.iqSize) *
                           (2 * tag + 24);
    const std::size_t lsq =
        static_cast<std::size_t>(config.lsqSize) * 72;
    const std::size_t prf =
        static_cast<std::size_t>(physRegs) * dataWidth;
    const std::size_t map = 32 * tag;
    const std::size_t fq = static_cast<std::size_t>(
                               config.fetchWidth) *
                           static_cast<std::size_t>(
                               config.frontEndDepth()) *
                           48;
    return rob + iq + lsq + prf + map + fq;
}

} // namespace otft::core
