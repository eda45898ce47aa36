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

/** One front-end instruction, unpacked (the address stays apart). */
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

    /** Fields of a packed word. Registers are stored biased by one,
     *  so 0 is workload::noReg. */
    static workload::OpClass
    opOf(std::uint32_t word)
    {
        return static_cast<workload::OpClass>(word & 7u);
    }
    static unsigned src1Of(std::uint32_t word) { return word >> 3 & 63u; }
    static unsigned src2Of(std::uint32_t word) { return word >> 9 & 63u; }
    static unsigned destOf(std::uint32_t word) { return word >> 15 & 63u; }
    static bool takenOf(std::uint32_t word) { return (word >> 21 & 1u) != 0; }
    static bool
    mispredictedOf(std::uint32_t word)
    {
        return (word >> 22 & 1u) != 0;
    }

    /** Inverse of pack(); the address is not part of the word. */
    static FrontEndInst
    unpack(std::uint32_t word)
    {
        FrontEndInst inst;
        inst.op = opOf(word);
        inst.src1 = static_cast<int>(src1Of(word)) - 1;
        inst.src2 = static_cast<int>(src2Of(word)) - 1;
        inst.dest = static_cast<int>(destOf(word)) - 1;
        inst.taken = takenOf(word);
        inst.mispredicted = mispredictedOf(word);
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

    /** The next instruction in program order, packed (see
     *  FrontEndStream::pack()). */
    std::uint32_t word() const { return word_; }

    /** Its effective address (Load/Store only; 0 otherwise). */
    std::uint64_t address() const { return address_; }

    /** Advance past the current instruction. */
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
        word_ = chunk->insts[index];
        address_ = workload::isMemory(FrontEndStream::opOf(word_))
                       ? chunk->addresses[memIndex++]
                       : 0;
    }

    void nextChunk();

    FrontEndStream &stream;
    const FrontEndStream::Chunk *chunk = nullptr;
    std::size_t chunkIndex = 0;
    /** The current instruction's position in `chunk`. */
    std::size_t index = 0;
    /** Next unread entry of chunk->addresses. */
    std::size_t memIndex = 0;
    std::uint32_t word_ = 0;
    std::uint64_t address_ = 0;
};

} // namespace otft::arch

#endif // OTFT_ARCH_FRONT_END_HPP
