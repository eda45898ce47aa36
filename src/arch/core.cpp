#include "arch/core.hpp"

#include <algorithm>

#include "util/logging.hpp"
#include "util/stats_registry.hpp"
#include "util/trace.hpp"

namespace otft::arch {

using workload::OpClass;

CoreModel::CoreModel(CoreConfig config, workload::TraceGenerator &trace)
    : cfg(config), trace(trace), predictor(config.predictorBits),
      memory(config.l1Latency, config.l2Latency, config.memLatency),
      aluBusyUntil(static_cast<std::size_t>(config.aluPipes), 0)
{
    if (cfg.fetchWidth < 1 || cfg.aluPipes < 1)
        fatal("CoreModel: invalid widths");
}

bool
CoreModel::operandReady(std::uint64_t producer_serial) const
{
    if (producer_serial == 0 || producer_serial < headSerial)
        return true; // no producer, or producer already committed
    const std::size_t idx =
        static_cast<std::size_t>(producer_serial - headSerial);
    if (idx >= rob.size())
        return true; // squashed producer: value is architectural
    return rob[idx].state == State::Done;
}

CoreModel::RobEntry &
CoreModel::entryOf(std::uint64_t serial)
{
    return rob[static_cast<std::size_t>(serial - headSerial)];
}

void
CoreModel::flushAfter(std::uint64_t serial)
{
    while (!rob.empty() && rob.back().serial > serial) {
        if (rob.back().op == OpClass::Load ||
            rob.back().op == OpClass::Store)
            --memInFlight;
        if (rob.back().state == State::Waiting)
            --waitingCount;
        rob.pop_back();
    }
    fetchQueue.clear();
    // Rebuild the rename map from the surviving in-flight producers.
    std::fill(renameMap.begin(), renameMap.end(), 0);
    for (const RobEntry &entry : rob)
        if (entry.dest != workload::noReg)
            renameMap[static_cast<std::size_t>(entry.dest)] =
                entry.serial;
}

std::uint64_t
CoreModel::nextEventCycle() const
{
    std::uint64_t next = UINT64_MAX;
    const auto consider = [&](std::uint64_t t) {
        if (t >= cycle && t < next)
            next = t;
    };
    consider(nextDoneCycle);
    consider(fetchResumeCycle);
    if (!fetchQueue.empty())
        consider(fetchQueue.front().readyCycle);
    for (std::uint64_t busy : aluBusyUntil)
        consider(busy);
    for (const RobEntry &entry : rob)
        if (entry.state == State::Waiting)
            consider(entry.earliestIssue);
    return next;
}

bool
CoreModel::doCommit()
{
    const int commit_width = std::max(cfg.fetchWidth,
                                      cfg.backendWidth());
    bool committed = false;
    for (int k = 0; k < commit_width && !rob.empty(); ++k) {
        RobEntry &head = rob.front();
        if (head.state != State::Done || head.doneCycle > cycle)
            break;
        if (head.op == OpClass::Load || head.op == OpClass::Store)
            --memInFlight;
        ++stats.instructions;
        ++headSerial;
        rob.pop_front();
        committed = true;
    }
    return committed;
}

bool
CoreModel::doComplete()
{
    if (cycle < nextDoneCycle)
        return false;
    bool completed = false;
    std::uint64_t next_done = UINT64_MAX;
    for (RobEntry &entry : rob) {
        if (entry.state != State::Issued)
            continue;
        if (entry.doneCycle > cycle) {
            next_done = std::min(next_done, entry.doneCycle);
            continue;
        }
        entry.state = State::Done;
        completed = true;
        if (entry.isBranch) {
            predictor.recordOutcome(entry.mispredicted);
            ++stats.branches;
            if (entry.mispredicted) {
                ++stats.mispredicts;
                // Redirect: squash younger work, restart fetch. No
                // younger entry survives the flush, so the walk ends
                // here; continuing would also compare against the
                // range's end iterator, which pop_back invalidates.
                flushAfter(entry.serial);
                fetchResumeCycle = cycle + 1;
                fetchBlocked = false;
                break;
            }
        }
    }
    nextDoneCycle = next_done;
    return completed;
}

bool
CoreModel::doIssue()
{
    int alu_free = 0;
    for (std::uint64_t busy : aluBusyUntil)
        if (busy <= cycle)
            ++alu_free;
    int mem_free = cfg.memPipes;
    int branch_free = cfg.branchPipes;

    const int wakeup = cfg.wakeupPenalty();
    bool issued = false;
    int window = 0;
    for (RobEntry &entry : rob) {
        if (alu_free + mem_free + branch_free == 0)
            break;
        if (entry.state != State::Waiting)
            continue;
        if (++window > cfg.iqSize)
            break; // outside the issue window
        if (entry.earliestIssue > cycle)
            continue;
        if (!operandReady(entry.prod1) || !operandReady(entry.prod2))
            continue;

        switch (entry.op) {
          case OpClass::IntAlu:
            if (alu_free == 0)
                continue;
            --alu_free;
            entry.doneCycle = cycle +
                              static_cast<std::uint64_t>(
                                  cfg.aluLatency() + wakeup);
            break;
          case OpClass::IntMul:
            if (alu_free == 0)
                continue;
            --alu_free;
            entry.doneCycle =
                cycle + static_cast<std::uint64_t>(
                            cfg.mulLatency + cfg.aluLatency() - 1 +
                            wakeup);
            break;
          case OpClass::IntDiv: {
            if (alu_free == 0)
                continue;
            --alu_free;
            // Divide blocks its pipe until completion.
            const std::uint64_t done =
                cycle + static_cast<std::uint64_t>(
                            cfg.divLatency + cfg.aluLatency() - 1 +
                            wakeup);
            entry.doneCycle = done;
            for (std::uint64_t &busy : aluBusyUntil) {
                if (busy <= cycle) {
                    busy = done;
                    break;
                }
            }
            break;
          }
          case OpClass::Load: {
            if (mem_free == 0)
                continue;
            --mem_free;
            const std::uint64_t l1m = memory.l1().misses();
            const std::uint64_t l2m = memory.l2().misses();
            const int latency = memory.loadLatency(entry.address);
            stats.l1Misses += memory.l1().misses() - l1m;
            stats.l2Misses += memory.l2().misses() - l2m;
            ++stats.loads;
            entry.doneCycle = cycle +
                              static_cast<std::uint64_t>(
                                  latency + cfg.aluLatency() - 1 +
                                  wakeup);
            break;
          }
          case OpClass::Store:
            if (mem_free == 0)
                continue;
            --mem_free;
            memory.store(entry.address);
            ++stats.stores;
            entry.doneCycle = cycle + 1;
            break;
          case OpClass::Branch:
            if (branch_free == 0)
                continue;
            --branch_free;
            // Resolution at the end of the execute region.
            entry.doneCycle =
                cycle + static_cast<std::uint64_t>(
                            cfg.stagesIn(Region::RegRead) +
                            cfg.stagesIn(Region::Execute));
            break;
        }
        entry.state = State::Issued;
        nextDoneCycle = std::min(nextDoneCycle, entry.doneCycle);
        --waitingCount;
        issued = true;
    }
    return issued;
}

bool
CoreModel::doDispatch()
{
    bool dispatched = false;
    for (int k = 0; k < cfg.fetchWidth; ++k) {
        if (fetchQueue.empty() ||
            fetchQueue.front().readyCycle > cycle)
            break;
        if (static_cast<int>(rob.size()) >= cfg.robSize)
            break;
        if (waitingCount >= cfg.iqSize)
            break;
        const FetchedInst &fetched = fetchQueue.front();
        const bool is_mem = fetched.inst.op == OpClass::Load ||
                            fetched.inst.op == OpClass::Store;
        if (is_mem && memInFlight >= cfg.lsqSize)
            break;

        RobEntry entry;
        entry.op = fetched.inst.op;
        entry.serial = nextSerial++;
        entry.earliestIssue =
            cycle + static_cast<std::uint64_t>(
                        cfg.stagesIn(Region::Issue));
        entry.address = fetched.inst.address;
        entry.isBranch = fetched.inst.op == OpClass::Branch;
        entry.mispredicted = fetched.mispredicted;
        entry.pc = fetched.inst.pc;
        entry.taken = fetched.inst.taken;

        // Rename: newest in-flight producer per source register.
        auto producer = [&](int reg) -> std::uint64_t {
            if (reg == workload::noReg)
                return 0;
            return renameMap[static_cast<std::size_t>(reg)];
        };
        entry.prod1 = producer(fetched.inst.src1);
        entry.prod2 = producer(fetched.inst.src2);
        entry.dest = fetched.inst.dest;
        if (entry.dest != workload::noReg)
            renameMap[static_cast<std::size_t>(entry.dest)] =
                entry.serial;

        if (is_mem)
            ++memInFlight;
        rob.push_back(entry);
        ++waitingCount;
        fetchQueue.pop_front();
        dispatched = true;
    }
    return dispatched;
}

bool
CoreModel::doFetch()
{
    if (cycle < fetchResumeCycle || fetchBlocked)
        return false;

    for (int k = 0; k < cfg.fetchWidth; ++k) {
        workload::TraceInst inst = trace.next();
        FetchedInst fetched;
        fetched.inst = inst;
        fetched.readyCycle =
            cycle + static_cast<std::uint64_t>(cfg.frontEndDepth());

        if (inst.op == OpClass::Branch) {
            const bool predicted = predictor.predict(inst.pc);
            predictor.update(inst.pc, inst.taken);
            fetched.mispredicted = predicted != inst.taken;
            fetchQueue.push_back(fetched);
            if (fetched.mispredicted) {
                // Trace-driven recovery: stop fetching until the
                // branch resolves (wrong-path work is not modeled).
                fetchBlocked = true;
                break;
            }
            if (inst.taken)
                break; // one taken branch per fetch group
        } else {
            fetchQueue.push_back(fetched);
        }
    }
    return true;
}

SimStats
CoreModel::run(std::uint64_t instruction_count,
               std::uint64_t warmup_instructions)
{
    OTFT_TRACE_SCOPE("arch.core.run");
    // Safety valve: no workload should need more than this many
    // cycles per instruction even at width 1.
    const std::uint64_t max_cycles =
        (warmup_instructions + instruction_count) * 400 + 100000;

    auto step = [&] {
        bool progressed = doCommit();
        progressed |= doComplete();
        progressed |= doIssue();
        progressed |= doDispatch();
        progressed |= doFetch();
        ++cycle;
        // A cycle in which no stage moved leaves the state unchanged,
        // so every cycle up to the next time-triggered event would
        // repeat it exactly: jump there instead of stepping through.
        if (!progressed)
            cycle = std::max(cycle,
                             std::min(nextEventCycle(), max_cycles));
    };

    // Warmup: train the predictor and caches, then discard counters
    // while keeping all microarchitectural state.
    stats = SimStats{};
    while (stats.instructions < warmup_instructions &&
           cycle < max_cycles)
        step();
    stats = SimStats{};

    const std::uint64_t measure_start = cycle;
    while (stats.instructions < instruction_count &&
           cycle < max_cycles)
        step();
    if (cycle >= max_cycles)
        warn("CoreModel: cycle limit reached (deadlock?)");
    stats.cycles = cycle - measure_start;

    // `stats` names the member here, so qualify the namespace fully.
    static otft::stats::Counter &stat_insts = otft::stats::counter(
        "arch.instructions.simulated",
        "instructions committed in the measured phase");
    static otft::stats::Counter &stat_cycles = otft::stats::counter(
        "arch.cycles.simulated", "cycles in the measured phase");
    stat_insts += stats.instructions;
    stat_cycles += stats.cycles;
    return stats;
}

} // namespace otft::arch
