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
 * Trace-driven simplification: wrong-path instructions are not
 * fetched; the misprediction cost is modeled as fetch-stall until
 * resolution plus the refill latency of the correct-path fetch group,
 * which is the same first-order penalty the paper's simulator charges.
 * IPC depends only on the core configuration — not on the technology
 * library — exactly as in the paper, where one AnyCore simulation
 * serves both processes.
 *
 * Idle cycles are skipped, not stepped: after a cycle in which no
 * stage committed, completed, issued, dispatched or fetched, the clock
 * jumps to the next time-triggered event (see nextEventCycle()). The
 * skipped cycles still count in SimStats::cycles, and every statistic
 * is identical to stepping through them one by one.
 */

#ifndef OTFT_ARCH_CORE_HPP
#define OTFT_ARCH_CORE_HPP

#include <cstdint>
#include <deque>

#include "arch/config.hpp"
#include "arch/memory.hpp"
#include "arch/predictor.hpp"
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
    enum class State : std::uint8_t { Waiting, Issued, Done };

    struct RobEntry
    {
        workload::OpClass op = workload::OpClass::IntAlu;
        State state = State::Waiting;
        /** Producer serials for the two sources (0 = ready). */
        std::uint64_t prod1 = 0;
        std::uint64_t prod2 = 0;
        std::uint64_t serial = 0;
        std::uint64_t earliestIssue = 0;
        std::uint64_t doneCycle = 0;
        std::uint64_t address = 0;
        int dest = workload::noReg;
        bool isBranch = false;
        bool mispredicted = false;
        std::uint64_t pc = 0;
        bool taken = false;
    };

    struct FetchedInst
    {
        workload::TraceInst inst;
        bool mispredicted = false;
        std::uint64_t readyCycle = 0;
    };

    /** Is the producer with this serial complete? */
    bool operandReady(std::uint64_t producer_serial) const;

    /** Entry lookup by serial (must be in flight). */
    RobEntry &entryOf(std::uint64_t serial);

    /** Squash everything younger than the given serial. */
    void flushAfter(std::uint64_t serial);

    /**
     * Earliest cycle at or after `cycle` at which a time-triggered
     * event (a completion, an issue becoming eligible, a divide
     * freeing its pipe, a fetched group reaching dispatch, fetch
     * resuming) can let a stage make progress; UINT64_MAX if none.
     */
    std::uint64_t nextEventCycle() const;

    /** Pipeline stages; each returns true if it changed any state. */
    bool doCommit();
    bool doComplete();
    bool doIssue();
    bool doDispatch();
    bool doFetch();

    CoreConfig cfg;
    workload::TraceGenerator &trace;
    GsharePredictor predictor;
    MemoryModel memory;
    SimStats stats;

    std::uint64_t cycle = 0;
    std::uint64_t nextSerial = 1;
    /** Serial of the ROB head entry (oldest in flight). */
    std::uint64_t headSerial = 1;
    std::deque<RobEntry> rob;
    std::deque<FetchedInst> fetchQueue;
    /** Fetch stalls until this cycle after a misprediction. */
    std::uint64_t fetchResumeCycle = 0;
    /** Fetch is blocked behind an unresolved mispredicted branch. */
    bool fetchBlocked = false;
    /** Newest in-flight producer serial per architectural register
     *  (0 = the architectural value is ready). */
    std::vector<std::uint64_t> renameMap =
        std::vector<std::uint64_t>(workload::numArchRegs, 0);
    /** Per-ALU-pipe busy horizon (divide blocks its pipe). */
    std::vector<std::uint64_t> aluBusyUntil;
    /** In-flight memory operations (LSQ occupancy). */
    int memInFlight = 0;
    /** ROB entries still Waiting (issue-queue occupancy). */
    int waitingCount = 0;
    /** Lower bound on the doneCycle of every Issued entry. */
    std::uint64_t nextDoneCycle = UINT64_MAX;
};

} // namespace otft::arch

#endif // OTFT_ARCH_CORE_HPP
