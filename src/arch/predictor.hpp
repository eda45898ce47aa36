/**
 * @file
 * Gshare branch direction predictor.
 *
 * A global-history XOR-indexed table of 2-bit saturating counters.
 * Branch targets are assumed BTB-resolved (direction mispredictions
 * dominate the depth sensitivity the paper studies).
 */

#ifndef OTFT_ARCH_PREDICTOR_HPP
#define OTFT_ARCH_PREDICTOR_HPP

#include <cstdint>
#include <vector>

namespace otft::arch {

/**
 * Global-history branch direction predictor with 2-bit saturating
 * counters, gselect-indexed (history concatenated above the pc bits).
 */
class GsharePredictor
{
  public:
    /**
     * @param index_bits log2 of the counter table size
     * @param history_bits global history length XORed into the index;
     *        kept shorter than the index so per-branch bias dominates
     *        and history only disambiguates correlated patterns
     */
    explicit GsharePredictor(int index_bits = 12, int history_bits = 3);

    /** Predict the direction of the branch at pc. */
    bool predict(std::uint64_t pc) const;

    /** Train with the actual outcome and update global history. */
    void update(std::uint64_t pc, bool taken);

  private:
    std::size_t index(std::uint64_t pc) const;

    std::vector<std::uint8_t> table;
    std::uint64_t history = 0;
    std::uint64_t mask;
    std::uint64_t historyMask;
    int pcBits = 0;
};

} // namespace otft::arch

#endif // OTFT_ARCH_PREDICTOR_HPP
