#include "arch/core.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "util/logging.hpp"
#include "util/stats_registry.hpp"
#include "util/trace.hpp"

namespace otft::arch {

using workload::OpClass;
using workload::isMemory;

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
      wakeup(config.wakeupPenalty()),
      commitWidth(std::max(config.fetchWidth, config.backendWidth())),
      issueStages(static_cast<std::uint64_t>(
          config.stagesIn(Region::Issue))),
      aluBusyUntil(static_cast<std::size_t>(config.aluPipes), 0)
{
    if (cfg.fetchWidth < 1 || cfg.aluPipes < 1)
        fatal("CoreModel: invalid widths");
    if (shared && shared->predictorBits() != cfg.predictorBits)
        fatal("CoreModel: stream predicted with ", shared->predictorBits(),
              " predictor bits, config has ", cfg.predictorBits);
    const std::size_t ring = std::bit_ceil(
        static_cast<std::size_t>(std::max(cfg.robSize, 1)));
    rob = std::make_unique<RobEntry[]>(ring);
    robMask = ring - 1;
    readyQueue.reserve(static_cast<std::size_t>(std::max(cfg.iqSize, 0)));

    const int slowest_memory =
        std::max({cfg.l1Latency, cfg.l2Latency, cfg.memLatency});
    const int fastest_memory =
        std::min({cfg.l1Latency, cfg.l2Latency, cfg.memLatency});
    int max_latency = 0;
    for (int k = 0; k < workload::numOpClasses; ++k) {
        const auto op = static_cast<OpClass>(k);
        // A delay below one cycle would land in the bucket doComplete()
        // has already drained.
        if (completionDelay(op, fastest_memory) < 1)
            fatal("CoreModel: ", workload::toString(op),
                  " completes in under one cycle");
        max_latency =
            std::max(max_latency, completionDelay(op, slowest_memory));
        delayOf[k] = static_cast<std::uint64_t>(completionDelay(op, 0));
    }
    const std::size_t buckets =
        std::bit_ceil(static_cast<std::size_t>(max_latency) + 1);
    wheel.assign(buckets, 0);
    wheelMask = buckets - 1;
    wheelOccupied.assign((buckets + 63) / 64, 0);
}

int
CoreModel::completionDelay(OpClass op, int memory_latency) const
{
    // Results leave the last execute stage, one wakeup penalty later.
    const int tail = cfg.aluLatency() - 1 + wakeup;
    int delay = 0;
    switch (op) {
      case OpClass::IntAlu:
        delay = 1 + tail;
        break;
      case OpClass::IntMul:
        delay = cfg.mulLatency + tail;
        break;
      case OpClass::IntDiv:
        delay = cfg.divLatency + tail;
        break;
      case OpClass::Load:
        delay = memory_latency + tail;
        break;
      case OpClass::Store:
        delay = 1;
        break;
      case OpClass::Branch:
        // Resolution at the end of the execute region.
        delay = cfg.stagesIn(Region::RegRead) +
                cfg.stagesIn(Region::Execute);
        break;
    }
    return delay;
}

void
CoreModel::scheduleCompletion(std::uint64_t done, std::uint64_t serial)
{
    // Push to the front: the order inside a bucket is free (see the
    // file comment).
    const std::size_t b = static_cast<std::size_t>(done & wheelMask);
    slot(serial).nextDone = wheel[b];
    wheel[b] = serial;
    wheelOccupied[b / 64] |= std::uint64_t{1} << (b % 64);
}

std::uint64_t
CoreModel::nextCompletionCycle() const
{
    // Scan the bitmap circularly from this cycle's bucket; the start
    // word comes round again last with the buckets below the start,
    // which hold the latest cycles.
    const std::size_t start = static_cast<std::size_t>(cycle & wheelMask);
    const std::size_t words = wheelOccupied.size();
    std::size_t w = start / 64;
    std::uint64_t bits =
        wheelOccupied[w] & (~std::uint64_t{0} << (start % 64));
    for (std::size_t n = 0; n <= words; ++n) {
        if (bits) {
            const std::size_t b =
                w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
            return cycle + ((b - start) & wheelMask);
        }
        w = w + 1 == words ? 0 : w + 1;
        bits = wheelOccupied[w];
    }
    return UINT64_MAX;
}

std::uint64_t
CoreModel::nextEventCycle() const
{
    std::uint64_t next = UINT64_MAX;
    const auto consider = [&](std::uint64_t t) {
        if (t >= cycle && t < next)
            next = t;
    };
    consider(nextCompletionCycle());
    if (!fetchBlocked)
        consider(fetchCycle + fetchDelay);
    // Past divideHorizon no pipe frees up any more.
    if (cycle <= divideHorizon)
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
    const std::uint64_t first = headSerial;
    const std::uint64_t end =
        std::min(nextSerial, first + static_cast<std::uint64_t>(commitWidth));
    for (; headSerial < end; ++headSerial) {
        const RobEntry &head = slot(headSerial);
        if (!head.done)
            break;
        memInFlight -= isMemory(head.op);
    }
    stats.instructions += headSerial - first;
    return headSerial != first;
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
    // skips past the earliest one), so this cycle's bucket holds them
    // all, in no particular order.
    const std::size_t b = static_cast<std::size_t>(cycle & wheelMask);
    std::uint64_t serial = wheel[b];
    if (serial == 0)
        return false;
    wheel[b] = 0;
    wheelOccupied[b / 64] &= ~(std::uint64_t{1} << (b % 64));
    do {
        RobEntry &entry = slot(serial);
        entry.done = true;
        wakeConsumers(entry);
        if (entry.op == OpClass::Branch) {
            ++stats.branches;
            if (entry.mispredicted) {
                ++stats.mispredicts;
                // Redirect. Fetch stopped behind this branch, so
                // nothing younger exists to squash (see the file
                // comment). Fetch resumes next cycle with a new group.
                assert(serial + 1 == nextSerial && fetchBlocked &&
                       "mispredicted branch must be the youngest in "
                       "flight");
                fetchCycle = cycle + 1;
                fetchSlot = 0;
                fetchBlocked = false;
            }
        }
        serial = entry.nextDone;
    } while (serial != 0);
    return true;
}

bool
CoreModel::doIssue()
{
    // Only a divide makes an ALU pipe busy past its issue cycle.
    int alu_free = cfg.aluPipes;
    if (cycle < divideHorizon) {
        alu_free = 0;
        for (std::uint64_t busy : aluBusyUntil)
            if (busy <= cycle)
                ++alu_free;
    }
    int mem_free = cfg.memPipes;
    int branch_free = cfg.branchPipes;

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

        std::uint64_t memory_latency = 0;
        switch (entry.op) {
          case OpClass::IntAlu:
          case OpClass::IntMul:
          case OpClass::IntDiv:
            if (alu_free == 0)
                continue;
            --alu_free;
            break;
          case OpClass::Load: {
            if (mem_free == 0)
                continue;
            --mem_free;
            const std::uint64_t l1m = memory.l1().misses();
            const std::uint64_t l2m = memory.l2().misses();
            memory_latency = static_cast<std::uint64_t>(
                memory.loadLatency(entry.address));
            stats.l1Misses += memory.l1().misses() - l1m;
            stats.l2Misses += memory.l2().misses() - l2m;
            ++stats.loads;
            break;
          }
          case OpClass::Store:
            if (mem_free == 0)
                continue;
            --mem_free;
            memory.store(entry.address);
            ++stats.stores;
            break;
          case OpClass::Branch:
            if (branch_free == 0)
                continue;
            --branch_free;
            break;
        }
        const std::uint64_t done =
            cycle + delayOf[static_cast<int>(entry.op)] + memory_latency;
        if (entry.op == OpClass::IntDiv) {
            // Divide blocks its pipe until completion.
            for (std::uint64_t &busy : aluBusyUntil) {
                if (busy <= cycle) {
                    busy = done;
                    break;
                }
            }
            divideHorizon = std::max(divideHorizon, done);
        }
        --kept;
        --waitingCount;
        scheduleCompletion(done, serial);
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
        const std::uint32_t word = frontEnd.word();
        const OpClass op = FrontEndStream::opOf(word);
        const bool is_mem = isMemory(op);
        if (is_mem && memInFlight >= cfg.lsqSize)
            break;

        const std::uint64_t serial = nextSerial++;
        RobEntry &entry = slot(serial);
        entry.op = op;
        entry.done = false;
        entry.earliestIssue = cycle + issueStages;
        entry.address = frontEnd.address();
        entry.mispredicted = FrontEndStream::mispredictedOf(word);
        entry.firstConsumer = 0;
        entry.pendingOperands = 0;

        // Rename: newest producer per source register. A source whose
        // producer is still executing links this entry onto the
        // producer's consumer list; completion wakes it. Slot 0 ("no
        // register") always reads 0, which is ready.
        const unsigned sources[2] = {FrontEndStream::src1Of(word),
                                     FrontEndStream::src2Of(word)};
        for (std::uint64_t src = 0; src < 2; ++src) {
            const std::uint64_t producer = renameMap[sources[src]];
            if (operandReady(producer))
                continue;
            RobEntry &prod = slot(producer);
            entry.nextConsumer[src] = prod.firstConsumer;
            prod.firstConsumer = serial << 1 | src;
            ++entry.pendingOperands;
        }
        renameMap[FrontEndStream::destOf(word)] = serial;
        renameMap[0] = 0;

        if (is_mem)
            ++memInFlight;
        ++waitingCount;
        if (entry.pendingOperands == 0)
            readyQueue.push_back(serial); // youngest: stays age-ordered

        // Fetch cycle of the next instruction: none until a
        // mispredicted branch resolves (wrong-path work is not
        // modeled); the next cycle after a taken branch (one per
        // group) or a full group; else this instruction's cycle.
        if (entry.mispredicted) {
            fetchBlocked = true;
        } else if (FrontEndStream::takenOf(word) ||
                   ++fetchSlot == cfg.fetchWidth) {
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
