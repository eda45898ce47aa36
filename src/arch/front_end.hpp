/**
 * @file
 * Compute-once front-end stream: a workload's dynamic instructions
 * with each branch's gshare outcome, shared by every core that
 * simulates the workload.
 *
 * Nothing the front end produces depends on timing. The trace is a
 * pure function of (profile, seed), and gshare predicts and trains at
 * fetch in program order, so each branch's mispredict flag is a pure
 * function of (profile, seed, predictorBits). A FrontEndStream runs
 * the generator and the predictor once, in program order, and every
 * core reads the result through its own FrontEndCursor.
 *
 * Storage: the stream grows one chunk of chunkInsts instructions at a
 * time, under a per-stream mutex, as the furthest cursor needs it.
 * Each instruction packs into one 32-bit word (op, src1, src2, dest,
 * taken, mispredicted); load/store addresses sit in a side array, so
 * an instruction costs ~6 bytes. A published chunk never changes and
 * sits behind a stable pointer, so cursors read it without a lock.
 */

#ifndef OTFT_ARCH_FRONT_END_HPP
#define OTFT_ARCH_FRONT_END_HPP

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "arch/predictor.hpp"
#include "workload/trace.hpp"

namespace otft::arch {

/** One decoded front-end instruction. */
struct FrontEndInst
{
    workload::OpClass op = workload::OpClass::IntAlu;
    /** Architectural registers (workload::noReg when unused). */
    int src1 = workload::noReg;
    int src2 = workload::noReg;
    int dest = workload::noReg;
    /** Branch outcome (Branch only). */
    bool taken = false;
    /** gshare predicted the branch wrong (Branch only). */
    bool mispredicted = false;
    /** Effective address (Load/Store only). */
    std::uint64_t address = 0;
};

/** The front-end stream of one (profile, seed, predictorBits). */
class FrontEndStream
{
  public:
    /**
     * Instructions per chunk: small enough that a short private run
     * (the 7k-instruction test grids) generates little past its end,
     * large enough that the per-chunk lock and allocations are noise.
     */
    static constexpr std::size_t chunkInsts = std::size_t{1} << 12;

    /** chunkInsts packed instructions; immutable once published. */
    struct Chunk
    {
        std::vector<std::uint32_t> insts;
        /** One per Load/Store, in program order. */
        std::vector<std::uint64_t> addresses;
    };

    /** Stream of a fresh generator for (profile, seed). */
    FrontEndStream(workload::BenchmarkProfile profile, std::uint64_t seed,
                   int predictor_bits);

    /** Stream that draws from `trace` (which must outlive it), from
     *  the generator's current position on. */
    FrontEndStream(workload::TraceGenerator &trace, int predictor_bits);

    FrontEndStream(const FrontEndStream &) = delete;
    FrontEndStream &operator=(const FrontEndStream &) = delete;

    int predictorBits() const { return predictorBits_; }

    /** Chunk `index`, built (with every chunk before it) on first
     *  request. Thread-safe; the reference stays valid. */
    const Chunk &chunk(std::size_t index);

    /** Pack an instruction and its mispredict flag into one word. */
    static std::uint32_t pack(const workload::TraceInst &inst,
                              bool mispredicted);

    /** Inverse of pack(); the address is not part of the word. */
    static FrontEndInst
    unpack(std::uint32_t word)
    {
        FrontEndInst inst;
        inst.op = static_cast<workload::OpClass>(word & 7u);
        inst.src1 = static_cast<int>(word >> 3 & 63u) - 1;
        inst.src2 = static_cast<int>(word >> 9 & 63u) - 1;
        inst.dest = static_cast<int>(word >> 15 & 63u) - 1;
        inst.taken = (word >> 21 & 1u) != 0;
        inst.mispredicted = (word >> 22 & 1u) != 0;
        return inst;
    }

  private:
    /** Generate and predict the next chunk (caller holds `mutex`). */
    std::unique_ptr<const Chunk> buildChunk();

    std::unique_ptr<workload::TraceGenerator> ownedTrace;
    workload::TraceGenerator &trace;
    GsharePredictor predictor;
    int predictorBits_;
    std::mutex mutex;
    std::vector<std::unique_ptr<const Chunk>> chunks;
};

/** One reader's position in a FrontEndStream. */
class FrontEndCursor
{
  public:
    explicit FrontEndCursor(FrontEndStream &stream);

    /** The next instruction in program order. */
    const FrontEndInst &front() const { return current; }

    /** Advance past front(). */
    void
    pop()
    {
        if (++index == FrontEndStream::chunkInsts)
            nextChunk();
        decode();
    }

  private:
    void
    decode()
    {
        current = FrontEndStream::unpack(chunk->insts[index]);
        if (current.op == workload::OpClass::Load ||
            current.op == workload::OpClass::Store)
            current.address = chunk->addresses[memIndex++];
    }

    void nextChunk();

    FrontEndStream &stream;
    const FrontEndStream::Chunk *chunk = nullptr;
    std::size_t chunkIndex = 0;
    /** front()'s position in `chunk`. */
    std::size_t index = 0;
    /** Next unread entry of chunk->addresses. */
    std::size_t memIndex = 0;
    FrontEndInst current;
};

} // namespace otft::arch

#endif // OTFT_ARCH_FRONT_END_HPP
