/**
 * @file
 * Trace-driven cycle-level out-of-order superscalar core model — the
 * framework's AnyCore-equivalent IPC simulator.
 *
 * Models: a fetch group of up to fetchWidth instructions per cycle
 * (one taken branch per group), gshare direction prediction trained
 * at fetch, a front-end delay pipe of frontEndDepth() stages, ROB/IQ/
 * LSQ occupancy limits, oldest-first issue to typed execution pipes
 * (ALU / memory / branch; multiply pipelined, divide blocking), full
 * bypass with a wakeup penalty when the issue loop is deepened, a
 * two-level data cache, and misprediction recovery timed by the
 * branch resolution depth plus front-end refill.
 *
 * Fetch is not a stage of the cycle loop. The instructions, their
 * branch outcomes and their gshare mispredict flags come precomputed
 * from a FrontEndStream (arch/front_end.hpp), read through a cursor.
 * The fetch queue has no capacity limit, so the only timing input of
 * fetch is the cycle it resumes after a misprediction, and dispatch
 * computes the fetch cycle of its next instruction on demand:
 *  - fetch groups of fetchWidth instructions go out on consecutive
 *    cycles, and a group ends after a taken branch;
 *  - fetch stops behind a mispredicted branch and resumes the cycle
 *    after the branch completes, with a new group;
 *  - an instruction fetched in cycle f may dispatch from cycle
 *    f + frontEndDepth() on (and never in f itself).
 * This is exactly the schedule of a per-cycle fetch stage that runs
 * after dispatch. Several cores may share one stream: fig13 generates
 * and predicts each workload once for the whole width grid.
 *
 * Trace-driven simplification: wrong-path instructions are not
 * fetched; the misprediction cost is modeled as fetch-stall until
 * resolution plus the refill latency of the correct-path fetch group,
 * which is the same first-order penalty the paper's simulator charges.
 * IPC depends only on the core configuration — not on the technology
 * library — exactly as in the paper, where one AnyCore simulation
 * serves both processes.
 *
 * Idle cycles are skipped, not stepped: after a cycle in which no
 * stage committed, completed, issued or dispatched, the clock jumps
 * to the next time-triggered event (see nextEventCycle()). The
 * skipped cycles still count in SimStats::cycles, and every statistic
 * is identical to stepping through them one by one.
 *
 * Event-driven bookkeeping: no stage walks the ROB.
 *  - ROB: in-flight instructions carry consecutive serials and live in
 *    a power-of-two ring indexed by `serial & robMask`.
 *  - Issue queue: dispatch links an instruction whose source producer
 *    is still executing onto that producer's consumer list, and counts
 *    its pending operands. When the count reaches zero it joins
 *    readyQueue, an age-ordered list of Waiting serials with every
 *    operand ready; that list is all doIssue() scans. Waiting entries
 *    off the list cannot issue, so the issue order is that of an
 *    oldest-first scan over the whole issue queue. waitingCount is
 *    the issue-queue occupancy.
 *  - Completions: Issued instructions sit on a completion wheel of
 *    bit_ceil(maxLatency + 1) buckets, bucket `done & mask` holding
 *    the entries that finish in cycle `done` as an intrusive list
 *    through RobEntry::nextDone; maxLatency is the largest
 *    completionDelay(). Every delay lies in [1, maxLatency] (the
 *    constructor rejects shorter ones), so live buckets never alias
 *    and doComplete() drains exactly this cycle's bucket. A bitmap of
 *    non-empty buckets gives nextEventCycle() the earliest completion
 *    by find-first-set.
 *  - The order inside a bucket is free: issue pushes to the front, and
 *    no result depends on the order in which one cycle's completions
 *    are processed. Waking a consumer inserts it into the age-sorted
 *    readyQueue, the pending-operand decrements commute, and at most
 *    one mispredicted branch is in flight (see below), so the fetch
 *    redirect is the same wherever it sits in its bucket.
 *
 * Contiguous-serial invariant: fetch stops behind a mispredicted
 * branch (wrong-path work is not modeled), so when such a branch
 * completes it is the youngest instruction in flight and fetch is
 * blocked. A redirect therefore never squashes anything, the
 * in-flight serials always form one contiguous range [headSerial,
 * nextSerial), and every ring slot in that range is live. A producer
 * serial below headSerial has committed, so it (and 0, "no producer")
 * reads as ready without any rename-map repair.
 */

#ifndef OTFT_ARCH_CORE_HPP
#define OTFT_ARCH_CORE_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "arch/config.hpp"
#include "arch/front_end.hpp"
#include "arch/memory.hpp"
#include "workload/trace.hpp"

namespace otft::arch {

/** Simulation statistics. */
struct SimStats
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Misses = 0;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    double
    mispredictRate() const
    {
        return branches ? static_cast<double>(mispredicts) /
                              static_cast<double>(branches)
                        : 0.0;
    }
};

/** The core model. */
class CoreModel
{
  public:
    /**
     * Read `stream` from its start. The stream must have been
     * predicted with config.predictorBits and outlive the model.
     */
    CoreModel(CoreConfig config, FrontEndStream &stream);

    /**
     * Read a private stream drawn from `trace` (which must outlive the
     * model) from the generator's current position on. The stream
     * draws whole chunks, so the generator may end up ahead of the
     * last instruction the model read.
     */
    CoreModel(CoreConfig config, workload::TraceGenerator &trace);

    /**
     * Simulate until `instruction_count` instructions commit after a
     * warmup period (predictor and caches train during warmup;
     * statistics cover only the measured phase).
     */
    SimStats run(std::uint64_t instruction_count,
                 std::uint64_t warmup_instructions = 10000);

    const CoreConfig &config() const { return cfg; }

  private:
    /** Reads `shared` if set, else `own`. */
    CoreModel(CoreConfig config, FrontEndStream *shared,
              std::unique_ptr<FrontEndStream> own);

    /** One in-flight instruction, stored in ring slot serial & robMask. */
    struct RobEntry
    {
        std::uint64_t earliestIssue = 0;
        std::uint64_t address = 0;
        /**
         * Consumers waiting on this entry's result, as an intrusive
         * list of (consumer serial << 1 | source slot) references:
         * the head is here, the link out of each consumer is in its
         * nextConsumer[slot]. 0 ends the list.
         */
        std::uint64_t firstConsumer = 0;
        std::uint64_t nextConsumer[2] = {0, 0};
        /** Next serial of this entry's completion-wheel bucket; 0 ends
         *  the list. */
        std::uint64_t nextDone = 0;
        workload::OpClass op = workload::OpClass::IntAlu;
        /** Completed: the result is available to consumers. */
        bool done = false;
        bool mispredicted = false;
        /** Sources whose producer has not completed yet. */
        std::uint8_t pendingOperands = 0;
    };

    /**
     * Cycles from issue to completion of an `op`; `memory_latency` is
     * the access latency of a load and unused otherwise. The wheel is
     * sized from it, so no completion can outrun the wheel; issue reads
     * it through delayOf.
     */
    int completionDelay(workload::OpClass op, int memory_latency) const;

    /** Put `serial` on the wheel to complete in cycle `done`. */
    void scheduleCompletion(std::uint64_t done, std::uint64_t serial);

    /** Earliest cycle at or after `cycle` with a completion due;
     *  UINT64_MAX if nothing is in flight. */
    std::uint64_t nextCompletionCycle() const;

    RobEntry &slot(std::uint64_t serial) { return rob[serial & robMask]; }
    const RobEntry &slot(std::uint64_t serial) const
    {
        return rob[serial & robMask];
    }

    /** Count this operand off each consumer of `producer`; consumers
     *  left with no pending operand join readyQueue in age order. */
    void wakeConsumers(const RobEntry &producer);

    /** Is the producer with this serial complete (0 = no producer)? */
    bool operandReady(std::uint64_t producer_serial) const
    {
        return producer_serial < headSerial || slot(producer_serial).done;
    }

    /**
     * Earliest cycle at or after `cycle` at which a time-triggered
     * event (a completion, an issue becoming eligible, a divide
     * freeing its pipe, the next instruction reaching dispatch) can
     * let a stage make progress; UINT64_MAX if none.
     */
    std::uint64_t nextEventCycle() const;

    /** Pipeline stages; each returns true if it changed any state. */
    bool doCommit();
    bool doComplete();
    bool doIssue();
    bool doDispatch();

    CoreConfig cfg;
    /** The stream of the generator constructor; null otherwise. */
    std::unique_ptr<FrontEndStream> ownStream;
    /** The next instruction to dispatch. */
    FrontEndCursor frontEnd;
    /** Cycles from fetch to the earliest dispatch (at least one). */
    std::uint64_t fetchDelay = 1;
    MemoryModel memory;
    SimStats stats;

    std::uint64_t cycle = 0;
    /** Serial the next dispatched instruction gets. */
    std::uint64_t nextSerial = 1;
    /** Serial of the ROB head entry (oldest in flight). */
    std::uint64_t headSerial = 1;
    /** ROB ring: power-of-two capacity >= robSize. */
    std::unique_ptr<RobEntry[]> rob;
    std::uint64_t robMask = 0;
    /** Waiting entries (issue-queue occupancy). */
    int waitingCount = 0;
    /** Serials of the Waiting entries with every operand ready, oldest
     *  first; the rest wait on their producers' consumer lists. */
    std::vector<std::uint64_t> readyQueue;
    /** Completion wheel: wheel[done & wheelMask] is the first serial
     *  of the list of Issued entries completing in cycle `done` (0 if
     *  none), in no particular order. */
    std::vector<std::uint64_t> wheel;
    std::uint64_t wheelMask = 0;
    /** Bit b of word b / 64 is set iff wheel[b] is non-empty. */
    std::vector<std::uint64_t> wheelOccupied;
    /** cfg.wakeupPenalty(). */
    int wakeup = 0;
    /** completionDelay(op, 0) per op: a load adds its memory latency. */
    std::uint64_t delayOf[workload::numOpClasses] = {};
    /** Instructions committed per cycle at most. */
    int commitWidth = 1;
    /** Cycles from dispatch to the earliest issue. */
    std::uint64_t issueStages = 0;
    /** Fetch cycle of the cursor's instruction (unless fetchBlocked). */
    std::uint64_t fetchCycle = 0;
    /** The cursor instruction's position in its fetch group. */
    int fetchSlot = 0;
    /** Fetch is blocked behind an unresolved mispredicted branch, so
     *  the cursor's instruction has no fetch cycle yet. */
    bool fetchBlocked = false;
    /** Newest producer serial per architectural register, indexed by
     *  the packed word's biased register field (0 or a committed serial
     *  = the architectural value is ready). Slot 0, "no register",
     *  is written like any other and reset to 0 after each write. */
    std::uint64_t renameMap[workload::numArchRegs + 1] = {};
    /** Per-ALU-pipe busy horizon (divide blocks its pipe). */
    std::vector<std::uint64_t> aluBusyUntil;
    /** The latest divide completion so far: from this cycle on every
     *  ALU pipe is free. */
    std::uint64_t divideHorizon = 0;
    /** In-flight memory operations (LSQ occupancy). */
    int memInFlight = 0;
};

} // namespace otft::arch

#endif // OTFT_ARCH_CORE_HPP
