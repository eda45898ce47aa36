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
 * worker pool. Counters are lock-free atomics (totals are exact under
 * contention); accumulators and histograms take a per-node mutex per
 * sample; the name map itself is guarded so concurrent first-use
 * registration is safe. Reads taken while writers are active see a
 * consistent per-node snapshot but no cross-node atomicity — dump
 * after joining workers for exact totals.
 *
 * Exact is not cheap: every update of a counter is an atomic
 * read-modify-write on one cache line that all workers share, so
 * bumping it once per element of a hot loop serializes the workers
 * on that line. A hot loop counts in a local variable and adds the
 * total once per pass (sta.cpp's propagate adds `sta.arcs.evaluated`
 * once per pass, not once per arc); the totals stay exact.
 */

#ifndef OTFT_UTIL_STATS_REGISTRY_HPP
#define OTFT_UTIL_STATS_REGISTRY_HPP

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace otft::stats {

/** Monotonically increasing scalar count (lock-free, exact). */
class Counter
{
  public:
    void
    operator+=(std::uint64_t n)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }
    Counter &operator++()
    {
        value_.fetch_add(1, std::memory_order_relaxed);
        return *this;
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Running count/sum/min/max over sampled values (e.g. seconds). */
class Accumulator
{
  public:
    void
    sample(double v)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (count_ == 0) {
            min_ = v;
            max_ = v;
        } else {
            if (v < min_)
                min_ = v;
            if (v > max_)
                max_ = v;
        }
        ++count_;
        sum_ += v;
    }

    std::uint64_t
    count() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return count_;
    }
    double
    sum() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return sum_;
    }
    double
    min() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return count_ ? min_ : 0.0;
    }
    double
    max() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return count_ ? max_ : 0.0;
    }
    double
    mean() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }

    void
    reset()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        count_ = 0;
        sum_ = min_ = max_ = 0.0;
    }

  private:
    mutable std::mutex mutex_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Linear fixed-bin histogram over [lo, hi) with under/overflow.
 * sample() and the aggregate readers lock a per-histogram mutex;
 * bins() returns a reference to live storage, so read it only after
 * concurrent samplers have joined (or take binsSnapshot()).
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t num_bins);

    void sample(double v);

    double lo() const { return lo_; }
    double hi() const { return hi_; }
    const std::vector<std::uint64_t> &bins() const { return bins_; }
    /** Copy of the bin counts, consistent under concurrent sampling. */
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
    double percentileLocked(double p) const;

    mutable std::mutex mutex_;
    double lo_;
    double hi_;
    std::vector<std::uint64_t> bins_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
};

/** Node kinds stored in the registry. */
enum class NodeKind { Counter, Accumulator, Histogram };

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

    Node &findOrCreate(const std::string &name, NodeKind kind,
                       const std::string &desc);

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
