/**
 * @file
 * Two-level data cache model.
 *
 * Set-associative L1D and unified L2 with LRU replacement, returning
 * access latency in cycles. Instruction fetch is modeled as always
 * hitting (the synthetic traces have small static footprints, and the
 * paper's depth/width conclusions hinge on data-side behavior).
 *
 * Every level has a power-of-two set count (L1D 32 KiB 4-way: 128
 * sets; L2 256 KiB 8-way: 512 sets), so the set index is the low bits
 * of the line address; Cache rejects any other geometry.
 */

#ifndef OTFT_ARCH_MEMORY_HPP
#define OTFT_ARCH_MEMORY_HPP

#include <cstdint>
#include <vector>

namespace otft::arch {

/** One set-associative cache level. */
class Cache
{
  public:
    /**
     * @param size_bytes total capacity
     * @param ways associativity
     * @param line_bytes cache line size
     *
     * The set count, size_bytes / (ways x line_bytes), must be a power
     * of two (fatal otherwise): the set index is a mask of the line
     * address, not a division.
     */
    Cache(std::size_t size_bytes, int ways, int line_bytes = 64);

    /** Access a byte address; @return true on hit. Fills on miss. */
    bool access(std::uint64_t address);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    struct Line
    {
        std::uint64_t tag = ~std::uint64_t{0};
        std::uint64_t lastUse = 0;
    };

    int ways;
    int lineShift;
    /** Set count minus one; the set of a line is `line & setMask`. */
    std::uint64_t setMask = 0;
    std::vector<Line> lines; // numSets x ways
    std::uint64_t clock = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/**
 * L1 + L2 + memory, reporting access latency. A next-line prefetcher
 * installs the successor line on every demand miss, so sequential
 * streams mostly hit after the first touch — the first-order effect
 * of the stride prefetchers in AnyCore-class memory hierarchies.
 */
class MemoryModel
{
  public:
    MemoryModel(int l1_latency, int l2_latency, int mem_latency);

    /** @return load-to-use latency in cycles for this address. */
    int loadLatency(std::uint64_t address);

    /** Record a store (fills caches; stores retire off critical path). */
    void store(std::uint64_t address);

    const Cache &l1() const { return l1_; }
    const Cache &l2() const { return l2_; }

  private:
    Cache l1_;
    Cache l2_;
    int l1Latency;
    int l2Latency;
    int memLatency;
};

} // namespace otft::arch

#endif // OTFT_ARCH_MEMORY_HPP
