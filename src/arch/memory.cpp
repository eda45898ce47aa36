#include "arch/memory.hpp"

#include <bit>

#include "util/logging.hpp"

namespace otft::arch {

namespace {

int
log2int(std::size_t v)
{
    int s = 0;
    while ((std::size_t{1} << s) < v)
        ++s;
    return s;
}

} // namespace

Cache::Cache(std::size_t size_bytes, int ways, int line_bytes)
    : ways(ways), lineShift(log2int(static_cast<std::size_t>(line_bytes)))
{
    if (ways < 1 || size_bytes == 0 || line_bytes <= 0)
        fatal("Cache: bad geometry");
    std::size_t num_sets = size_bytes /
                           (static_cast<std::size_t>(ways) *
                            static_cast<std::size_t>(line_bytes));
    if (num_sets == 0)
        num_sets = 1;
    if (!std::has_single_bit(num_sets))
        fatal("Cache: ", num_sets, " sets; the set count must be a power "
              "of two");
    setMask = num_sets - 1;
    lines.assign(num_sets * static_cast<std::size_t>(ways), Line{});
}

bool
Cache::access(std::uint64_t address)
{
    ++clock;
    const std::uint64_t line_addr = address >> lineShift;
    const std::size_t set = static_cast<std::size_t>(line_addr & setMask);
    Line *base = &lines[set * static_cast<std::size_t>(ways)];

    Line *victim = base;
    for (int w = 0; w < ways; ++w) {
        if (base[w].tag == line_addr) {
            base[w].lastUse = clock;
            ++hits_;
            return true;
        }
        if (base[w].lastUse < victim->lastUse)
            victim = &base[w];
    }
    victim->tag = line_addr;
    victim->lastUse = clock;
    ++misses_;
    return false;
}

MemoryModel::MemoryModel(int l1_latency, int l2_latency, int mem_latency)
    : l1_(32 * 1024, 4), l2_(256 * 1024, 8), l1Latency(l1_latency),
      l2Latency(l2_latency), memLatency(mem_latency)
{
}

int
MemoryModel::loadLatency(std::uint64_t address)
{
    if (l1_.access(address))
        return l1Latency;
    // Next-line prefetch on demand miss.
    l1_.access(address + 64);
    if (l2_.access(address)) {
        l2_.access(address + 64);
        return l2Latency;
    }
    l2_.access(address + 64);
    return memLatency;
}

void
MemoryModel::store(std::uint64_t address)
{
    if (!l1_.access(address))
        l2_.access(address);
}

} // namespace otft::arch
