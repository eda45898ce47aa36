#include "arch/core.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "util/logging.hpp"
#include "util/stats_registry.hpp"
#include "util/trace.hpp"

namespace otft::arch {

using workload::OpClass;

CoreModel::CoreModel(CoreConfig config, FrontEndStream &stream)
    : CoreModel(config, &stream, nullptr)
{
}

CoreModel::CoreModel(CoreConfig config, workload::TraceGenerator &trace)
    : CoreModel(config, nullptr,
                std::make_unique<FrontEndStream>(trace,
                                                 config.predictorBits))
{
}

CoreModel::CoreModel(CoreConfig config, FrontEndStream *shared,
                     std::unique_ptr<FrontEndStream> own)
    : cfg(config), ownStream(std::move(own)),
      frontEnd(shared ? *shared : *ownStream),
      fetchDelay(static_cast<std::uint64_t>(
          std::max(config.frontEndDepth(), 1))),
      memory(config.l1Latency, config.l2Latency, config.memLatency),
      aluBusyUntil(static_cast<std::size_t>(config.aluPipes), 0)
{
    if (cfg.fetchWidth < 1 || cfg.aluPipes < 1)
        fatal("CoreModel: invalid widths");
    if (shared && shared->predictorBits() != cfg.predictorBits)
        fatal("CoreModel: stream predicted with ", shared->predictorBits(),
              " predictor bits, config has ", cfg.predictorBits);
    const std::size_t ring = std::bit_ceil(
        static_cast<std::size_t>(std::max(cfg.robSize, 1)));
    rob.resize(ring);
    robMask = ring - 1;
    readyQueue.reserve(static_cast<std::size_t>(std::max(cfg.iqSize, 0)));
    completions.reserve(ring);
}

bool
CoreModel::laterCompletion(const Completion &a, const Completion &b)
{
    return a.cycle != b.cycle ? a.cycle > b.cycle : a.serial > b.serial;
}

std::uint64_t
CoreModel::nextEventCycle() const
{
    std::uint64_t next = UINT64_MAX;
    const auto consider = [&](std::uint64_t t) {
        if (t >= cycle && t < next)
            next = t;
    };
    if (!completions.empty())
        consider(completions.front().cycle);
    if (!fetchBlocked)
        consider(fetchCycle + fetchDelay);
    for (std::uint64_t busy : aluBusyUntil)
        consider(busy);
    // Entries still waiting on an operand need a completion (itself
    // an event) before their earliestIssue matters.
    for (std::uint64_t serial : readyQueue)
        consider(slot(serial).earliestIssue);
    return next;
}

bool
CoreModel::doCommit()
{
    const int commit_width = std::max(cfg.fetchWidth,
                                      cfg.backendWidth());
    bool committed = false;
    for (int k = 0; k < commit_width && headSerial < nextSerial; ++k) {
        const RobEntry &head = slot(headSerial);
        if (!head.done)
            break;
        if (head.op == OpClass::Load || head.op == OpClass::Store)
            --memInFlight;
        ++stats.instructions;
        ++headSerial;
        committed = true;
    }
    return committed;
}

void
CoreModel::wakeConsumers(const RobEntry &producer)
{
    for (std::uint64_t ref = producer.firstConsumer; ref != 0;) {
        const std::uint64_t serial = ref >> 1;
        RobEntry &consumer = slot(serial);
        ref = consumer.nextConsumer[ref & 1];
        if (--consumer.pendingOperands == 0)
            readyQueue.insert(std::upper_bound(readyQueue.begin(),
                                               readyQueue.end(), serial),
                              serial);
    }
}

bool
CoreModel::doComplete()
{
    // Every due completion is due exactly this cycle (the clock never
    // skips past the heap top), so the heap yields them oldest first.
    bool completed = false;
    while (!completions.empty() && completions.front().cycle <= cycle) {
        std::pop_heap(completions.begin(), completions.end(),
                      laterCompletion);
        const std::uint64_t serial = completions.back().serial;
        completions.pop_back();
        RobEntry &entry = slot(serial);
        entry.done = true;
        completed = true;
        wakeConsumers(entry);
        if (entry.op != OpClass::Branch)
            continue;
        ++stats.branches;
        if (entry.mispredicted) {
            ++stats.mispredicts;
            // Redirect. Fetch stopped behind this branch, so nothing
            // younger exists to squash (see the file comment). Fetch
            // resumes next cycle with a new group.
            assert(serial + 1 == nextSerial && fetchBlocked &&
                   "mispredicted branch must be the youngest in flight");
            fetchCycle = cycle + 1;
            fetchSlot = 0;
            fetchBlocked = false;
            break;
        }
    }
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
    // Oldest first over the Waiting entries whose operands are ready.
    // Dispatch keeps the issue queue within iqSize, so all of it is
    // the issue window. Entries that stay Waiting are compacted toward
    // the front in the same pass.
    std::size_t kept = 0;
    std::size_t i = 0;
    for (; i < readyQueue.size(); ++i) {
        if (alu_free + mem_free + branch_free == 0)
            break;
        const std::uint64_t serial = readyQueue[i];
        readyQueue[kept++] = serial; // dropped again below if it issues
        RobEntry &entry = slot(serial);
        if (entry.earliestIssue > cycle)
            continue;

        std::uint64_t done = 0;
        switch (entry.op) {
          case OpClass::IntAlu:
            if (alu_free == 0)
                continue;
            --alu_free;
            done = cycle + static_cast<std::uint64_t>(cfg.aluLatency() +
                                                      wakeup);
            break;
          case OpClass::IntMul:
            if (alu_free == 0)
                continue;
            --alu_free;
            done = cycle + static_cast<std::uint64_t>(
                               cfg.mulLatency + cfg.aluLatency() - 1 +
                               wakeup);
            break;
          case OpClass::IntDiv:
            if (alu_free == 0)
                continue;
            --alu_free;
            // Divide blocks its pipe until completion.
            done = cycle + static_cast<std::uint64_t>(
                               cfg.divLatency + cfg.aluLatency() - 1 +
                               wakeup);
            for (std::uint64_t &busy : aluBusyUntil) {
                if (busy <= cycle) {
                    busy = done;
                    break;
                }
            }
            break;
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
            done = cycle + static_cast<std::uint64_t>(
                               latency + cfg.aluLatency() - 1 + wakeup);
            break;
          }
          case OpClass::Store:
            if (mem_free == 0)
                continue;
            --mem_free;
            memory.store(entry.address);
            ++stats.stores;
            done = cycle + 1;
            break;
          case OpClass::Branch:
            if (branch_free == 0)
                continue;
            --branch_free;
            // Resolution at the end of the execute region.
            done = cycle + static_cast<std::uint64_t>(
                               cfg.stagesIn(Region::RegRead) +
                               cfg.stagesIn(Region::Execute));
            break;
        }
        --kept;
        --waitingCount;
        completions.push_back({done, serial});
        std::push_heap(completions.begin(), completions.end(),
                       laterCompletion);
        issued = true;
    }
    // Close the gap left by issued entries; any entries behind an
    // early exit stay queued, in order.
    readyQueue.erase(readyQueue.begin() + static_cast<std::ptrdiff_t>(kept),
                     readyQueue.begin() + static_cast<std::ptrdiff_t>(i));
    return issued;
}

bool
CoreModel::doDispatch()
{
    bool dispatched = false;
    for (int k = 0; k < cfg.fetchWidth; ++k) {
        if (fetchBlocked || fetchCycle + fetchDelay > cycle)
            break;
        if (static_cast<int>(nextSerial - headSerial) >= cfg.robSize)
            break;
        if (waitingCount >= cfg.iqSize)
            break;
        const FrontEndInst &inst = frontEnd.front();
        const bool is_mem =
            inst.op == OpClass::Load || inst.op == OpClass::Store;
        if (is_mem && memInFlight >= cfg.lsqSize)
            break;

        const std::uint64_t serial = nextSerial++;
        RobEntry &entry = slot(serial);
        entry.op = inst.op;
        entry.done = false;
        entry.earliestIssue =
            cycle + static_cast<std::uint64_t>(
                        cfg.stagesIn(Region::Issue));
        entry.address = inst.address;
        entry.mispredicted = inst.mispredicted;
        entry.firstConsumer = 0;
        entry.pendingOperands = 0;

        // Rename: newest producer per source register. A source whose
        // producer is still executing links this entry onto the
        // producer's consumer list; completion wakes it.
        const int sources[2] = {inst.src1, inst.src2};
        for (std::uint64_t src = 0; src < 2; ++src) {
            if (sources[src] == workload::noReg)
                continue;
            const std::uint64_t producer =
                renameMap[static_cast<std::size_t>(sources[src])];
            if (operandReady(producer))
                continue;
            RobEntry &prod = slot(producer);
            entry.nextConsumer[src] = prod.firstConsumer;
            prod.firstConsumer = serial << 1 | src;
            ++entry.pendingOperands;
        }
        if (inst.dest != workload::noReg)
            renameMap[static_cast<std::size_t>(inst.dest)] = serial;

        if (is_mem)
            ++memInFlight;
        ++waitingCount;
        if (entry.pendingOperands == 0)
            readyQueue.push_back(serial); // youngest: stays age-ordered

        // Fetch cycle of the next instruction: none until a
        // mispredicted branch resolves (wrong-path work is not
        // modeled); the next cycle after a taken branch (one per
        // group) or a full group; else this instruction's cycle.
        if (inst.mispredicted) {
            fetchBlocked = true;
        } else if (inst.taken || ++fetchSlot == cfg.fetchWidth) {
            ++fetchCycle;
            fetchSlot = 0;
        }
        frontEnd.pop();
        dispatched = true;
    }
    return dispatched;
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
        ++cycle;
        // A cycle in which no stage moved leaves the state unchanged,
        // so every cycle up to the next time-triggered event would
        // repeat it exactly: jump there instead of stepping through.
        if (!progressed)
            cycle = std::max(cycle,
                             std::min(nextEventCycle(), max_cycles));
    };

    // Warmup: train the caches (the stream's predictor has trained on
    // the same instructions), then discard counters while keeping all
    // microarchitectural state.
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
