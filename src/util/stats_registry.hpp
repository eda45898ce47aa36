/**
 * @file
 * Process-wide hierarchical statistics registry, in the spirit of
 * gem5's stats package: named scalar counters, accumulators with
 * count/sum/min/max, and fixed-bin histograms. A ratio of two nodes
 * is left to the reader of a dump, which holds both operands.
 *
 * Names are dotted paths following the `layer.noun.verb` convention
 * ("circuit.newton.iterations", "sta.arcs.evaluated"). Registration
 * is idempotent — looking up an existing name returns the same node —
 * so call sites cache a reference in a function-local static and pay
 * one map lookup per process:
 *
 *     static auto &iters =
 *         stats::counter("circuit.newton.iterations");
 *     iters += n;
 *
 * Values survive across runs within a process; reset() zeroes every
 * node (registrations persist) so tests and repeated sweeps start
 * clean.
 *
 * Concurrency: the registry is safe to update from the util/parallel
 * worker pool. Every node holds a fixed array of detail::shardCount
 * per-thread shards, each on its own cache line, and a thread updates
 * only the shard of its slot (taken once per thread, round-robin).
 * A counter update is one relaxed fetch_add on that shard; an
 * accumulator or histogram sample takes that shard's mutex, which
 * another thread holds only when more threads than shards share a
 * slot. Totals stay exact under contention. The name map itself is
 * guarded, so concurrent first-use registration is safe.
 *
 * Reads (value(), count/sum/min/max/mean, binsSnapshot(),
 * counterSnapshot() and both dumps) merge the shards; reset() zeroes
 * every shard. A read taken while writers are active sees each shard
 * consistently but no cross-shard or cross-node atomicity — read
 * after joining workers for exact totals.
 *
 * Exact is cheap: an update writes a line no other worker writes, so
 * a hot loop may bump a counter per element without serializing the
 * workers. A local that is added once per pass is still cheaper per
 * update, and is worth it only in loops that update millions of times
 * per pass (sta.cpp's propagate adds `sta.arcs.evaluated` once per
 * pass, not once per arc).
 */

#ifndef OTFT_UTIL_STATS_REGISTRY_HPP
#define OTFT_UTIL_STATS_REGISTRY_HPP

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace otft::stats {

namespace detail {

/** Per-thread shards of every node (a compile-time constant). */
inline constexpr std::size_t shardCount = 16;

/** Bytes per shard alignment: one cache line on the hosts we run. */
inline constexpr std::size_t cacheLine = 64;

/** The next slot in round-robin order (called once per thread). */
std::size_t claimShard();

/** Storage behind shardSlot(); shardCount means not yet claimed. */
inline thread_local std::size_t t_shardSlot = shardCount;

/** The calling thread's shard index, claimed on its first update. */
inline std::size_t
shardSlot()
{
    std::size_t slot = t_shardSlot;
    if (slot == shardCount) [[unlikely]]
        slot = t_shardSlot = claimShard();
    return slot;
}

} // namespace detail

/** Monotonically increasing scalar count (lock-free, exact). */
class Counter
{
  public:
    void
    operator+=(std::uint64_t n)
    {
        shards_[detail::shardSlot()].value.fetch_add(
            n, std::memory_order_relaxed);
    }
    Counter &operator++()
    {
        *this += 1;
        return *this;
    }

    std::uint64_t value() const;
    void reset();

  private:
    struct alignas(detail::cacheLine) Shard
    {
        std::atomic<std::uint64_t> value{0};
    };
    std::array<Shard, detail::shardCount> shards_;
};

/** Running count/sum/min/max over sampled values (e.g. seconds). */
class Accumulator
{
  public:
    void
    sample(double v)
    {
        Shard &s = shards_[detail::shardSlot()];
        std::lock_guard<std::mutex> lock(s.mutex);
        s.moments.add(v);
    }

    std::uint64_t count() const { return merged().count; }
    double sum() const { return merged().sum; }
    double
    min() const
    {
        const Moments m = merged();
        return m.count ? m.min : 0.0;
    }
    double
    max() const
    {
        const Moments m = merged();
        return m.count ? m.max : 0.0;
    }
    double
    mean() const
    {
        const Moments m = merged();
        return m.count ? m.sum / static_cast<double>(m.count) : 0.0;
    }

    void reset();

  private:
    struct Moments
    {
        std::uint64_t count = 0;
        double sum = 0.0;
        double min = 0.0;
        double max = 0.0;

        void
        add(double v)
        {
            if (count == 0) {
                min = v;
                max = v;
            } else {
                if (v < min)
                    min = v;
                if (v > max)
                    max = v;
            }
            ++count;
            sum += v;
        }
        void merge(const Moments &other);
    };
    struct alignas(detail::cacheLine) Shard
    {
        mutable std::mutex mutex;
        Moments moments;
    };

    /** Every shard's moments folded in shard order. */
    Moments merged() const;

    std::array<Shard, detail::shardCount> shards_;
};

/**
 * Linear fixed-bin histogram over [lo, hi) with under/overflow; a NaN
 * sample counts as overflow. sample() locks its thread's shard; the
 * readers merge every shard, so bins() is a merged copy like
 * binsSnapshot().
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t num_bins);

    void sample(double v);

    double lo() const { return lo_; }
    double hi() const { return hi_; }
    std::vector<std::uint64_t> bins() const { return binsSnapshot(); }
    /** Merged bin counts of every shard. */
    std::vector<std::uint64_t> binsSnapshot() const;
    std::uint64_t underflow() const;
    std::uint64_t overflow() const;
    std::uint64_t totalSamples() const;

    /**
     * Percentile estimate over the binned samples (under/overflow
     * excluded — their exact values are unknown), interpolated
     * linearly within the containing bin. p is clamped to [0, 100];
     * an empty histogram reports lo().
     */
    double percentile(double p) const;

    /** Median and tail shorthands for reports. */
    double p50() const { return percentile(50.0); }
    double p95() const { return percentile(95.0); }

    void reset();

  private:
    static constexpr std::size_t binsPerLine =
        detail::cacheLine / sizeof(std::uint64_t);

    /** One line of bin counts: a shard's bins fill lines of its own. */
    struct alignas(detail::cacheLine) BinLine
    {
        std::array<std::uint64_t, binsPerLine> n{};
    };
    struct alignas(detail::cacheLine) Shard
    {
        mutable std::mutex mutex;
        std::uint64_t underflow = 0;
        std::uint64_t overflow = 0;
        std::vector<BinLine> lines;
    };

    double lo_;
    double hi_;
    std::size_t numBins_;
    std::array<Shard, detail::shardCount> shards_;
};

/**
 * The registry: an ordered map from dotted name to node. Nodes are
 * heap-allocated once and never move, so returned references stay
 * valid for the life of the process.
 */
class Registry
{
  public:
    /** Registry node (opaque outside the implementation). */
    struct Node;

    /** The process-wide registry. */
    static Registry &instance();

    /** Find-or-create nodes; fatal on a kind mismatch. */
    Counter &counter(const std::string &name,
                     const std::string &desc = "");
    Accumulator &accumulator(const std::string &name,
                             const std::string &desc = "");
    Histogram &histogram(const std::string &name, double lo, double hi,
                         std::size_t num_bins,
                         const std::string &desc = "");

    /** @return true if `name` is registered (any kind). */
    bool has(const std::string &name) const;

    /**
     * Values of every registered counter, keyed by name. Used by the
     * perf suite to compute per-scenario counter deltas.
     */
    std::map<std::string, std::uint64_t> counterSnapshot() const;

    /** Zero every node's value; registrations persist. */
    void reset();

    /** Render a sorted text table of every non-empty node. */
    void dumpText(std::ostream &os) const;

    /** Dump every node as one flat JSON object keyed by name. */
    void dumpJson(std::ostream &os) const;

    /** Number of registered nodes. */
    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return nodes.size();
    }

  private:
    Registry() = default;

    /**
     * The node `name` of payload kind T, created from `args` if new;
     * fatal if `name` holds another kind. Defined and instantiated in
     * the implementation only.
     */
    template <typename T, typename... Args>
    T &findOrCreate(const std::string &name, const std::string &desc,
                    Args &&...args);

    /**
     * Guards the name map (not node values: nodes are heap-allocated,
     * never move, and synchronize themselves).
     */
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Node>> nodes;
};

/** Shorthand for Registry::instance() accessors. */
Counter &counter(const std::string &name, const std::string &desc = "");
Accumulator &accumulator(const std::string &name,
                         const std::string &desc = "");
Histogram &histogram(const std::string &name, double lo, double hi,
                     std::size_t num_bins, const std::string &desc = "");

/** Monotonic clock read in nanoseconds (exposed for trace scopes). */
std::int64_t monotonicNowNs();

} // namespace otft::stats

#endif // OTFT_UTIL_STATS_REGISTRY_HPP
