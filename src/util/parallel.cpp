#include "util/parallel.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#include "util/logging.hpp"
#include "util/profiler.hpp"
#include "util/stats_registry.hpp"

namespace otft::parallel {

namespace {

std::atomic<int> g_jobs{0}; // 0 = not yet initialized

thread_local bool t_inside_worker = false;

/**
 * Pool-stats state. Worker slots live in a deque (stable references)
 * keyed by the worker's spawn index; slots survive pool shutdown so
 * cumulative totals span pool generations until resetPoolStats().
 */
struct WorkerSlot
{
    std::atomic<std::uint64_t> busyNs{0};
    std::atomic<std::uint64_t> chunks{0};
};

std::atomic<int> g_queue_depth{0};
std::atomic<std::uint64_t> g_caller_busy_ns{0};
std::atomic<std::uint64_t> g_caller_chunks{0};
std::mutex g_slots_mutex;
std::deque<WorkerSlot> &
workerSlots()
{
    static std::deque<WorkerSlot> slots;
    return slots;
}

thread_local WorkerSlot *t_slot = nullptr;

WorkerSlot *
claimWorkerSlot(std::size_t index)
{
    std::lock_guard<std::mutex> lock(g_slots_mutex);
    std::deque<WorkerSlot> &slots = workerSlots();
    while (slots.size() <= index)
        slots.emplace_back();
    return &slots[index];
}

/** One parallelFor invocation shared between caller and helpers. */
struct Batch
{
    std::size_t n = 0;
    const std::function<void(std::size_t)> *fn = nullptr;

    /** Shared cursor: the next unclaimed index. */
    std::atomic<std::size_t> cursor{0};
    /** Participant slots still claimable (caller holds one). */
    int maxParticipants = 1;
    int participants = 1;

    /** Lowest-index exception wins (deterministic rethrow). */
    std::mutex errMutex;
    std::size_t errIndex = 0;
    std::exception_ptr error;

    /** Helper lifecycle (guarded by doneMutex). */
    std::mutex doneMutex;
    std::condition_variable doneCv;
    int activeHelpers = 0;

    /** Pool-stats bookkeeping (only touched while profiling). */
    std::chrono::steady_clock::time_point submitTime{};
    std::mutex statsMutex;
    /** Busy ns of each participant (caller + helpers) this region. */
    std::vector<std::uint64_t> participantBusyNs;

    bool
    hasWork() const
    {
        return cursor.load(std::memory_order_relaxed) < n;
    }
};

void
recordError(Batch &batch, std::size_t index)
{
    std::lock_guard<std::mutex> lock(batch.errMutex);
    if (!batch.error || index < batch.errIndex) {
        batch.error = std::current_exception();
        batch.errIndex = index;
    }
}

/**
 * Execute indices of `batch`, one per grab, until the shared cursor
 * is exhausted. Exceptions are recorded, not propagated: every index
 * still runs, so the lowest throwing index is the same for every job
 * count.
 */
void
work(Batch &batch)
{
    const bool stats_on = prof::enabled();
    std::uint64_t busy_ns = 0;
    std::uint64_t chunks_run = 0;
    while (true) {
        const std::size_t i =
            batch.cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= batch.n)
            break;
        std::chrono::steady_clock::time_point start{};
        if (stats_on)
            start = std::chrono::steady_clock::now();
        try {
            (*batch.fn)(i);
        } catch (...) {
            recordError(batch, i);
        }
        if (stats_on) {
            static stats::Histogram &stat_task_s = stats::histogram(
                "parallel.pool.task_s", 0.0, 0.05, 50,
                "per-chunk execution time in parallelFor regions");
            const auto dt = std::chrono::duration_cast<
                                std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() -
                                start)
                                .count();
            busy_ns += static_cast<std::uint64_t>(dt);
            ++chunks_run;
            stat_task_s.sample(static_cast<double>(dt) * 1e-9);
        }
    }
    if (!stats_on)
        return;
    // Flush this participant's totals: into its worker slot (pool
    // threads) or the shared caller counters, plus the per-region
    // list the imbalance summary folds after retire().
    if (t_slot) {
        t_slot->busyNs.fetch_add(busy_ns, std::memory_order_relaxed);
        t_slot->chunks.fetch_add(chunks_run,
                                 std::memory_order_relaxed);
    } else {
        g_caller_busy_ns.fetch_add(busy_ns,
                                   std::memory_order_relaxed);
        g_caller_chunks.fetch_add(chunks_run,
                                  std::memory_order_relaxed);
    }
    std::lock_guard<std::mutex> lock(batch.statsMutex);
    batch.participantBusyNs.push_back(busy_ns);
}

/** The process-wide worker pool (workers spawn lazily). */
struct Pool
{
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<std::thread> threads;
    std::deque<Batch *> queue;
    bool stop = false;

    ~Pool() { shutdown(); }

    void
    shutdown()
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            stop = true;
        }
        cv.notify_all();
        for (std::thread &t : threads)
            t.join();
        threads.clear();
        {
            std::lock_guard<std::mutex> lock(mutex);
            stop = false;
        }
    }

    void
    workerLoop(std::size_t index)
    {
        t_inside_worker = true;
        prof::setThreadName("worker");
        t_slot = claimWorkerSlot(index);
        while (true) {
            Batch *batch = nullptr;
            {
                std::unique_lock<std::mutex> lock(mutex);
                cv.wait(lock, [&] {
                    if (stop)
                        return true;
                    for (Batch *b : queue)
                        if (b->hasWork() &&
                            b->participants < b->maxParticipants)
                            return true;
                    return false;
                });
                if (stop)
                    return;
                for (Batch *b : queue) {
                    if (b->hasWork() &&
                        b->participants < b->maxParticipants) {
                        batch = b;
                        break;
                    }
                }
                if (!batch)
                    continue;
                ++batch->participants;
                std::lock_guard<std::mutex> done(batch->doneMutex);
                ++batch->activeHelpers;
            }
            if (prof::enabled()) {
                static stats::Histogram &stat_queue_wait_s =
                    stats::histogram(
                        "parallel.pool.queue_wait_s", 0.0, 0.01, 50,
                        "batch publish to helper pickup latency");
                const auto wait =
                    std::chrono::duration_cast<
                        std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() -
                        batch->submitTime)
                        .count();
                stat_queue_wait_s.sample(static_cast<double>(wait) *
                                         1e-9);
            }
            work(*batch);
            {
                // Notify while still holding doneMutex: the moment
                // the count hits zero with the mutex free, retire()
                // may destroy the batch, so the cv must not be
                // touched after the unlock.
                std::lock_guard<std::mutex> done(batch->doneMutex);
                --batch->activeHelpers;
                batch->doneCv.notify_all();
            }
        }
    }

    /** Grow to at least `count` workers (holds the pool mutex). */
    void
    ensureWorkers(std::size_t count)
    {
        std::lock_guard<std::mutex> lock(mutex);
        while (threads.size() < count)
            threads.emplace_back(
                [this, index = threads.size()] { workerLoop(index); });
    }

    void
    submit(Batch &batch)
    {
        if (prof::enabled())
            batch.submitTime = std::chrono::steady_clock::now();
        {
            std::lock_guard<std::mutex> lock(mutex);
            queue.push_back(&batch);
        }
        g_queue_depth.fetch_add(1, std::memory_order_relaxed);
        cv.notify_all();
    }

    /**
     * Unpublish the batch so no new helper can join, then drain the
     * helpers already inside it. Must be called before the batch
     * leaves the caller's stack frame.
     */
    void
    retire(Batch &batch)
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            for (auto it = queue.begin(); it != queue.end(); ++it) {
                if (*it == &batch) {
                    queue.erase(it);
                    break;
                }
            }
        }
        g_queue_depth.fetch_sub(1, std::memory_order_relaxed);
        std::unique_lock<std::mutex> done(batch.doneMutex);
        batch.doneCv.wait(done,
                          [&] { return batch.activeHelpers == 0; });
    }
};

Pool &
pool()
{
    static Pool p;
    return p;
}

} // namespace

int
hardwareJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

void
setJobs(int n)
{
    if (n < 1)
        fatal("parallel: job count must be >= 1, got ", n);
    g_jobs.store(n, std::memory_order_relaxed);
}

int
jobs()
{
    const int n = g_jobs.load(std::memory_order_relaxed);
    return n > 0 ? n : hardwareJobs();
}

JobsOverride::JobsOverride(int n) : prev(jobs())
{
    setJobs(n);
}

JobsOverride::~JobsOverride()
{
    setJobs(prev);
}

bool
insideWorker()
{
    return t_inside_worker;
}

void
shutdownPool()
{
    pool().shutdown();
}

PoolStats
poolStatsSnapshot()
{
    PoolStats s;
    {
        std::lock_guard<std::mutex> lock(g_slots_mutex);
        for (const WorkerSlot &slot : workerSlots()) {
            s.workerBusyNs.push_back(
                slot.busyNs.load(std::memory_order_relaxed));
            s.workerChunks.push_back(
                slot.chunks.load(std::memory_order_relaxed));
        }
    }
    s.callerBusyNs = g_caller_busy_ns.load(std::memory_order_relaxed);
    s.callerChunks = g_caller_chunks.load(std::memory_order_relaxed);
    s.queueDepth = g_queue_depth.load(std::memory_order_relaxed);
    return s;
}

void
resetPoolStats()
{
    std::lock_guard<std::mutex> lock(g_slots_mutex);
    for (WorkerSlot &slot : workerSlots()) {
        slot.busyNs.store(0, std::memory_order_relaxed);
        slot.chunks.store(0, std::memory_order_relaxed);
    }
    g_caller_busy_ns.store(0, std::memory_order_relaxed);
    g_caller_chunks.store(0, std::memory_order_relaxed);
}

int
queueDepth()
{
    return g_queue_depth.load(std::memory_order_relaxed);
}

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn)
{
    int j = jobs();
    if (static_cast<std::size_t>(j) > n)
        j = static_cast<int>(n);

    // Serial path: no index, one job, one index, or already inside a
    // pool worker (nested fan-out runs inline, in order, fail-fast,
    // to avoid deadlock).
    if (j <= 1 || insideWorker()) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    Batch batch;
    batch.n = n;
    batch.fn = &fn;
    batch.maxParticipants = j;

    Pool &shared = pool();
    shared.ensureWorkers(static_cast<std::size_t>(j - 1));
    shared.submit(batch);
    work(batch);
    shared.retire(batch);

    // End-of-region load-imbalance summary: every helper has drained,
    // so participantBusyNs is complete and uncontended.
    if (!batch.participantBusyNs.empty()) {
        static stats::Accumulator &stat_busy_max = stats::accumulator(
            "parallel.region.busy_max_s",
            "slowest participant's busy time per parallelFor region");
        static stats::Accumulator &stat_busy_mean =
            stats::accumulator(
                "parallel.region.busy_mean_s",
                "mean participant busy time per parallelFor region");
        static stats::Accumulator &stat_imbalance =
            stats::accumulator(
                "parallel.region.imbalance",
                "max/mean participant busy time per region (1.0 = "
                "perfectly balanced)");
        std::uint64_t max_ns = 0;
        std::uint64_t sum_ns = 0;
        for (const std::uint64_t ns : batch.participantBusyNs) {
            max_ns = std::max(max_ns, ns);
            sum_ns += ns;
        }
        const double mean_ns =
            static_cast<double>(sum_ns) /
            static_cast<double>(batch.participantBusyNs.size());
        stat_busy_max.sample(static_cast<double>(max_ns) * 1e-9);
        stat_busy_mean.sample(mean_ns * 1e-9);
        if (mean_ns > 0.0)
            stat_imbalance.sample(static_cast<double>(max_ns) /
                                  mean_ns);
    }

    if (batch.error)
        std::rethrow_exception(batch.error);
}

} // namespace otft::parallel
