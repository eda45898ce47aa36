/**
 * @file
 * Reusable parallel execution layer: a process-wide worker pool with
 * a dynamically scheduled `parallelFor` and the deterministic
 * `orderedMap` on top.
 *
 * Determinism contract: parallelism never changes results. Work is
 * identified by index and `orderedMap` writes each result into its
 * own slot, so a run at `--jobs 8` is bit-identical to `--jobs 1` as
 * long as each per-index task is a pure function of its index.
 * Exceptions are deterministic too: when several tasks throw, the one
 * with the lowest index is rethrown on the calling thread.
 *
 * Nesting: a parallelFor issued from inside a pool worker runs
 * serially on that worker (no nested fan-out, no deadlock), so outer
 * layers (explorer grid) absorb the parallelism of inner layers (IPC
 * fan-out) naturally.
 *
 * The global job count defaults to the hardware concurrency and is
 * set once at startup by cli::Session from `--jobs`;
 * tests and benches pin a scope with JobsOverride.
 */

#ifndef OTFT_UTIL_PARALLEL_HPP
#define OTFT_UTIL_PARALLEL_HPP

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
 * Run fn(i) for every i in [0, n), fanning out across the pool.
 *
 * One scheduling policy: every participant (the caller plus up to
 * jobs() - 1 pool workers) grabs the next unclaimed index from a
 * shared cursor, so irregular per-index costs (transient sims, STA)
 * balance themselves. If any task threw, the exception of the lowest
 * throwing index is rethrown here after all started tasks have
 * drained (no task outlives the call).
 */
void parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn);

/** @return true when the calling thread is a pool worker. */
bool insideWorker();

/**
 * Scheduler observability. While the sampling profiler runs
 * (prof::enabled()), the pool times every chunk (one index) it
 * executes and publishes, per parallelFor region, queue-wait /
 * task-duration histograms plus a load-imbalance summary (max / mean
 * participant busy time) into the stats registry, and keeps the exact
 * cumulative busy time and chunk count of every worker below; the
 * profiler resets them at start and turns each worker's busy time into
 * `parallel.pool.worker_busy_fraction` at stop. Otherwise the pool
 * takes no clock reads.
 *
 * PoolStats is that accounting, cumulative since the last
 * resetPoolStats().
 */
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
orderedMap(std::size_t n, Fn &&fn)
{
    std::vector<T> out(n);
    parallelFor(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
}

} // namespace otft::parallel

#endif // OTFT_UTIL_PARALLEL_HPP
