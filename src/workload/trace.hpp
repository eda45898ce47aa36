/**
 * @file
 * Instruction trace records and benchmark profiles.
 *
 * The paper drives AnyCore's cycle-accurate simulator with Dhrystone
 * and SimPoints of six SPEC CPU2000 integer benchmarks. We have no
 * SPEC license or SimPoint traces, so traces are synthesized from
 * per-benchmark statistical profiles (instruction mix, branch
 * behavior, dependency-distance distribution, memory locality)
 * calibrated to published SPEC2000 characterizations. IPC differences
 * across benchmarks and their sensitivity to pipeline depth and
 * superscalar width come from these statistics, which is what the
 * architectural conclusions depend on.
 */

#ifndef OTFT_WORKLOAD_TRACE_HPP
#define OTFT_WORKLOAD_TRACE_HPP

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace otft::workload {

/** Instruction classes the execution pipes distinguish. */
enum class OpClass : std::uint8_t {
    IntAlu,
    IntMul,
    IntDiv,
    Load,
    Store,
    Branch,
};

/** Number of OpClass values. */
inline constexpr int numOpClasses = 6;

/** Does `op` access memory (and carry an effective address)? */
inline bool
isMemory(OpClass op)
{
    return op == OpClass::Load || op == OpClass::Store;
}

/** @return printable op class name. */
const char *toString(OpClass op);

/** Architectural register count of the synthetic ISA. */
inline constexpr int numArchRegs = 32;

/** Register sentinel meaning "no register". */
inline constexpr int noReg = -1;

/** One dynamic instruction. */
struct TraceInst
{
    OpClass op = OpClass::IntAlu;
    /** Source architectural registers (noReg when unused). */
    int src1 = noReg;
    int src2 = noReg;
    /** Destination architectural register (noReg for store/branch). */
    int dest = noReg;
    /** Instruction address (static identity for the predictor). */
    std::uint64_t pc = 0;
    /** Branch outcome (valid for Branch). */
    bool taken = false;
    /** Branch target (valid for Branch). */
    std::uint64_t target = 0;
    /** Effective address (valid for Load/Store). */
    std::uint64_t address = 0;
};

/** Statistical profile of one benchmark. */
struct BenchmarkProfile
{
    std::string name;
    /** Instruction class mix (fractions summing to <= 1; the
     *  remainder is IntAlu). */
    double branchFraction = 0.12;
    double loadFraction = 0.25;
    double storeFraction = 0.10;
    double mulFraction = 0.01;
    double divFraction = 0.002;
    /**
     * Branch population character: fractions of static branches that
     * are strongly biased, loop-patterned, and data-dependent
     * (hard to predict). Sums to 1.
     */
    double biasedBranchFraction = 0.6;
    double loopBranchFraction = 0.3;
    double randomBranchFraction = 0.1;
    /** Mean dependency distance (instructions) for source operands;
     *  smaller = less ILP. */
    double depDistance = 6.0;
    /** Fraction of loads whose address depends on a recent load
     *  (pointer chasing). */
    double pointerChaseFraction = 0.05;
    /** Data working set in bytes (drives cache miss rates). */
    std::uint64_t workingSetBytes = 256 * 1024;
    /** Fraction of memory accesses that are sequential streams. */
    double streamingFraction = 0.5;
    /**
     * Temporal locality: non-streaming accesses fall in a small hot
     * region with this probability, else anywhere in the working set.
     */
    double hotFraction = 0.85;
    /** Size of the hot region, bytes. */
    std::uint64_t hotBytes = 32 * 1024;
    /** Static branch sites in the synthetic program. */
    int staticBranches = 256;
};

/** The seven workloads of the paper's evaluation. */
std::vector<BenchmarkProfile> paperWorkloads();

/** Profile by name ("dhrystone", "bzip2", "gap", "gzip", "mcf",
 *  "parser", "vortex"); fatal if unknown. */
BenchmarkProfile profileByName(const std::string &name);

/**
 * Deterministic synthetic trace generator implementing a profile.
 * Instructions are produced block by block: a basic block of
 * class-mixed instructions ending in a conditional branch whose
 * outcome follows its static site's behavior pattern.
 */
class TraceGenerator
{
  public:
    TraceGenerator(BenchmarkProfile profile, std::uint64_t seed = 1);

    /** Publishes the instructions not yet published (see
     *  publishGenerated()). */
    ~TraceGenerator();

    TraceGenerator(const TraceGenerator &) = delete;
    TraceGenerator &operator=(const TraceGenerator &) = delete;

    /** Generate the next dynamic instruction. */
    TraceInst next();

    /**
     * Add the instructions generated since the last call to the
     * `workload.instructions.generated` counter. A generator that
     * lives as long as its consumer (a shared front-end stream) calls
     * this per batch, so the count is current while the run goes on.
     */
    void publishGenerated();

    const BenchmarkProfile &profile() const { return profile_; }

  private:
    /** Behavior of one static branch site. */
    struct BranchSite
    {
        enum class Kind { Biased, Loop, Random } kind = Kind::Biased;
        /** Taken probability (Biased/Random). */
        double takenProb = 0.9;
        /** Loop trip count (Loop). */
        int tripCount = 8;
        int loopPos = 0;
    };

    bool branchOutcome(std::size_t site);
    std::uint64_t nextAddress(bool &chased);

    BenchmarkProfile profile_;
    Rng rng;
    std::vector<BranchSite> sites;
    std::uint64_t pc = 0x1000;
    /**
     * Dependency pool: the last recentDestSlots destination registers
     * in a ring. The n-th newest (n >= 1) of the `destWrites` written
     * so far sits at (destWrites - n) % recentDestSlots.
     */
    static constexpr std::size_t recentDestSlots = 64;
    std::array<int, recentDestSlots> recentDests{};
    std::uint64_t destWrites = 0;
    /** Streaming pointers. */
    std::uint64_t streamAddr = 0;
    int lastLoadDest = noReg;
    /**
     * Instructions generated and not yet published. Counted here and
     * published in batches: a shared counter bumped per instruction
     * makes concurrent generators contend on one cache line.
     */
    std::uint64_t generated = 0;
};

} // namespace otft::workload

#endif // OTFT_WORKLOAD_TRACE_HPP
