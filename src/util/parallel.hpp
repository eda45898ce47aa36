/**
 * @file
 * Reusable parallel execution layer: a process-wide worker pool with
 * `parallelFor` (static or dynamic chunking), cooperative
 * cancellation, and deterministic ordered map/reduce helpers.
 *
 * Determinism contract: parallelism never changes results. Work is
 * identified by index; `orderedMap` writes each result into its own
 * slot and `orderedReduce` folds the slots in ascending index order,
 * so a run at `--jobs 8` is bit-identical to `--jobs 1` as long as
 * each per-index task is a pure function of its index. Exceptions are
 * deterministic too: when several tasks throw, the one with the
 * lowest index is rethrown on the calling thread.
 *
 * Nesting: a parallelFor issued from inside a pool worker runs
 * serially on that worker (no nested fan-out, no deadlock), so outer
 * layers (explorer grid) absorb the parallelism of inner layers (IPC
 * fan-out) naturally.
 *
 * The global job count defaults to the hardware concurrency and is
 * set once at startup by cli::Session from `--jobs`/`OTFT_JOBS`;
 * tests and benches pin a scope with JobsOverride.
 */

#ifndef OTFT_UTIL_PARALLEL_HPP
#define OTFT_UTIL_PARALLEL_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace otft::parallel {

/** @return max(1, std::thread::hardware_concurrency()). */
int hardwareJobs();

/**
 * Set the process-wide default worker count. Any n >= 1 is accepted
 * (oversubscription is legitimate for tests and latency-hiding);
 * fatal on n < 1. Callers wanting the CLI clamp semantics go through
 * cli::Session, which validates and clamps to hardwareJobs().
 */
void setJobs(int n);

/** Current process-wide default worker count. */
int jobs();

/** RAII scope that overrides the global job count (tests, benches). */
class JobsOverride
{
  public:
    explicit JobsOverride(int n);
    ~JobsOverride();

    JobsOverride(const JobsOverride &) = delete;
    JobsOverride &operator=(const JobsOverride &) = delete;

  private:
    int prev;
};

/**
 * Cooperative cancellation token. Cancellation is checked between
 * chunks: indices already started still complete, indices not yet
 * started are skipped, and parallelFor reports the early exit.
 */
class CancelToken
{
  public:
    void cancel() { flag.store(true, std::memory_order_relaxed); }
    bool
    cancelled() const
    {
        return flag.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<bool> flag{false};
};

/** Chunk assignment policy for parallelFor. */
enum class Chunking {
    /** Contiguous [0,n) split into one range per worker up front.
     *  Lowest overhead; best for uniform per-index cost. */
    Static,
    /** Workers grab `grain`-sized blocks from a shared cursor.
     *  Load-balances irregular tasks (transient sims, STA). */
    Dynamic,
};

/** Options for parallelFor / orderedMap / orderedReduce. */
struct ForOptions
{
    /** Worker count; 0 means the global jobs() default. */
    int jobs = 0;
    Chunking chunking = Chunking::Dynamic;
    /** Indices per dynamic grab (>= 1). */
    std::size_t grain = 1;
    /** Optional cooperative cancellation. */
    CancelToken *cancel = nullptr;
};

/**
 * Run fn(i) for every i in [0, n), fanning out across the pool.
 *
 * @return true when every index ran; false when a cancel token
 * stopped the loop early. If any task threw, the exception of the
 * lowest throwing index is rethrown here after all started tasks
 * have drained (no task outlives the call).
 */
bool parallelFor(std::size_t n,
                 const std::function<void(std::size_t)> &fn,
                 const ForOptions &options = {});

/** @return true when the calling thread is a pool worker. */
bool insideWorker();

/**
 * Scheduler observability. When enabled (by the sampling profiler at
 * collection start, or directly by tests), the pool times every chunk
 * it executes and publishes, per parallelFor region, queue-wait /
 * task-duration histograms plus a load-imbalance summary (max / mean
 * participant busy time) into the stats registry. Exact cumulative
 * busy time and chunk counts per worker are kept here for snapshots.
 * Off (the default), the pool takes no clock reads.
 */
void setPoolStatsEnabled(bool on);
bool poolStatsEnabled();

/** Cumulative pool accounting since the last resetPoolStats(). */
struct PoolStats
{
    /** Busy nanoseconds per pool worker, indexed by worker slot. */
    std::vector<std::uint64_t> workerBusyNs;
    /** Chunks executed per pool worker. */
    std::vector<std::uint64_t> workerChunks;
    /** Busy nanoseconds spent by calling threads inside their own
     *  parallelFor regions (the caller always participates). */
    std::uint64_t callerBusyNs = 0;
    /** Chunks executed by calling threads. */
    std::uint64_t callerChunks = 0;
    /** Batches currently published to the pool. */
    int queueDepth = 0;
};

PoolStats poolStatsSnapshot();
void resetPoolStats();

/** Batches currently published to the pool (sampled by the profiler). */
int queueDepth();

/** Tear down the pool (used by tests; it re-spawns lazily). */
void shutdownPool();

/**
 * Deterministic parallel map: out[i] = fn(i). T must be default
 * constructible and movable. Slots are written independently, so the
 * result is identical for any job count.
 */
template <typename T, typename Fn>
std::vector<T>
orderedMap(std::size_t n, Fn &&fn, const ForOptions &options = {})
{
    std::vector<T> out(n);
    parallelFor(
        n, [&](std::size_t i) { out[i] = fn(i); }, options);
    return out;
}

/**
 * Deterministic parallel map-reduce: compute fn(i) in parallel, then
 * fold the results strictly in index order on the calling thread
 * (init = reduce(init, out[0]), then out[1], ...). Floating-point
 * reductions are therefore bit-identical to the serial loop.
 */
template <typename Acc, typename T, typename Fn, typename Reduce>
Acc
orderedReduce(std::size_t n, Acc init, Fn &&fn, Reduce &&reduce,
              const ForOptions &options = {})
{
    std::vector<T> slots = orderedMap<T>(n, std::forward<Fn>(fn),
                                         options);
    for (std::size_t i = 0; i < n; ++i)
        init = reduce(std::move(init), std::move(slots[i]));
    return init;
}

} // namespace otft::parallel

#endif // OTFT_UTIL_PARALLEL_HPP
