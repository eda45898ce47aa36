#include "arch/predictor.hpp"

#include "util/logging.hpp"

namespace otft::arch {

GsharePredictor::GsharePredictor(int index_bits, int history_bits)
{
    if (index_bits < 4 || index_bits > 24)
        fatal("GsharePredictor: index bits out of range: ", index_bits);
    if (history_bits < 0 || history_bits >= index_bits)
        fatal("GsharePredictor: bad history bits: ", history_bits);
    table.assign(std::size_t{1} << index_bits, 1); // weakly not-taken
    pcBits = index_bits - history_bits;
    mask = (std::uint64_t{1} << index_bits) - 1;
    historyMask = (std::uint64_t{1} << history_bits) - 1;
}

std::size_t
GsharePredictor::index(std::uint64_t pc) const
{
    // Gselect indexing: history bits concatenated above the pc bits,
    // so branches with opposite biases never destructively alias the
    // way a short-history XOR would.
    const std::uint64_t pc_part =
        (pc >> 2) & ((std::uint64_t{1} << pcBits) - 1);
    return static_cast<std::size_t>(
        (pc_part | ((history & historyMask) << pcBits)) & mask);
}

bool
GsharePredictor::predict(std::uint64_t pc) const
{
    return table[index(pc)] >= 2;
}

void
GsharePredictor::update(std::uint64_t pc, bool taken)
{
    std::uint8_t &ctr = table[index(pc)];
    if (taken) {
        if (ctr < 3)
            ++ctr;
    } else {
        if (ctr > 0)
            --ctr;
    }
    history = ((history << 1) | (taken ? 1 : 0)) & historyMask;
}

} // namespace otft::arch
