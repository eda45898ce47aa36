#include "util/profiler.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <istream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <set>
#include <sstream>
#include <thread>

#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "util/stats_registry.hpp"
#include "util/table.hpp"

namespace otft::prof {

namespace detail {
std::atomic<bool> g_enabled{false};
} // namespace detail

namespace {

/** Frames kept per thread; deeper pushes sample as "(deep)". */
constexpr std::size_t maxDepth = 64;
/** Longest label copied; the tail is truncated. */
constexpr std::size_t maxLabel = 96;
/** Preallocation per frame slot so pushes never allocate. */
constexpr std::size_t reserveLabel = 128;

/**
 * One registered thread's sampled state. The owning thread mutates
 * `frames`/`depth` under `mutex`, holding it only for one label copy
 * and taking no other lock under it; the sampler waits for it, so
 * every sample of a live thread with frames records its stack.
 * `alive` is a plain atomic readable without the lock.
 */
struct ThreadState
{
    std::mutex mutex;
    std::size_t depth = 0;
    std::string frames[maxDepth];
    std::atomic<bool> alive{true};
    /** Stack-root label; points at a string literal ("main", ...). */
    const char *name = "main";

    ThreadState()
    {
        for (std::string &f : frames)
            f.reserve(reserveLabel);
    }
};

struct Impl
{
    /** Registered thread states (pruned of dead threads on start). */
    std::mutex threadsMutex;
    std::vector<std::shared_ptr<ThreadState>> threads;

    /** Sampler lifecycle. */
    std::thread sampler;
    std::atomic<bool> stopRequested{false};
    std::atomic<std::uint64_t> samples{0};

    /** Collection results (guarded by resultsMutex once stopped). */
    mutable std::mutex resultsMutex;
    std::map<std::string, std::uint64_t> stacks;
    /** Threads seen alive by at least one sample. */
    std::set<const ThreadState *> sampledThreads;
    std::uint64_t periodUs = 1000;
    /** Collection start, for the pool busy fractions. */
    std::int64_t startNs = 0;
    bool active = false;
};

Impl &
impl()
{
    static Impl *i = new Impl; // leaked: sampled by detached threads
    return *i;
}

thread_local const char *t_name = "main";

/**
 * The calling thread's registered state, created on first use. The
 * holder's destructor marks the state dead so the sampler (which
 * shares ownership) skips it after the thread exits.
 */
struct StateHolder
{
    std::shared_ptr<ThreadState> state;
    ~StateHolder()
    {
        if (state)
            state->alive.store(false, std::memory_order_relaxed);
    }
};

ThreadState *
threadState()
{
    thread_local StateHolder holder;
    if (!holder.state) {
        auto state = std::make_shared<ThreadState>();
        state->name = t_name;
        Impl &i = impl();
        std::lock_guard<std::mutex> lock(i.threadsMutex);
        i.threads.push_back(state);
        holder.state = std::move(state);
    }
    return holder.state.get();
}

/** Copy a label into a preallocated slot, sanitizing separators. */
void
assignLabel(std::string &slot, const char *label, std::size_t len)
{
    slot.clear();
    const std::size_t n = std::min(len, maxLabel);
    for (std::size_t k = 0; k < n; ++k) {
        const unsigned char c =
            static_cast<unsigned char>(label[k]);
        slot.push_back(c == ';' || std::isspace(c) || c < 0x20
                           ? '_'
                           : static_cast<char>(c));
    }
}

void
samplerLoop(Impl &i)
{
    // A reusable key buffer: one string build per sampled stack.
    std::string key;
    key.reserve(1024);

    static stats::Histogram &stat_queue_depth = stats::histogram(
        "parallel.pool.queue_depth", 0.0, 16.0, 16,
        "parallel batches published to the pool per profiler sample");

    const auto period = std::chrono::microseconds(i.periodUs);
    auto next = std::chrono::steady_clock::now() + period;
    while (!i.stopRequested.load(std::memory_order_acquire)) {
        std::this_thread::sleep_until(next);
        next += period;

        stat_queue_depth.sample(
            static_cast<double>(parallel::queueDepth()));

        std::lock_guard<std::mutex> lock(i.threadsMutex);
        // Results lock second (start() never nests them the other
        // way): accessors may read folded()/frameTotals() while the
        // collection is still running.
        std::lock_guard<std::mutex> results(i.resultsMutex);
        for (const auto &state : i.threads) {
            if (!state->alive.load(std::memory_order_relaxed))
                continue;
            i.sampledThreads.insert(state.get());

            std::unique_lock<std::mutex> frames(state->mutex);
            const std::size_t depth = state->depth;
            if (depth == 0)
                continue; // idle thread: counted above, no stack
            key.assign(state->name);
            const std::size_t copied = std::min(depth, maxDepth);
            for (std::size_t d = 0; d < copied; ++d) {
                key.push_back(';');
                key.append(state->frames[d]);
            }
            if (depth > maxDepth)
                key.append(";(deep)");
            frames.unlock();
            ++i.stacks[key];
            i.samples.fetch_add(1, std::memory_order_relaxed);
        }
    }
}

/** Split a folded key into frame labels. */
std::vector<std::string>
splitStack(const std::string &stack)
{
    std::vector<std::string> frames;
    std::size_t start = 0;
    while (start <= stack.size()) {
        const std::size_t semi = stack.find(';', start);
        if (semi == std::string::npos) {
            frames.push_back(stack.substr(start));
            break;
        }
        frames.push_back(stack.substr(start, semi - start));
        start = semi + 1;
    }
    return frames;
}

} // namespace

Profiler &
Profiler::instance()
{
    static Profiler profiler;
    return profiler;
}

bool
Profiler::start(std::uint64_t period_us)
{
    Impl &i = impl();
    {
        std::lock_guard<std::mutex> lock(i.resultsMutex);
        if (i.active) {
            warn("profiler: a collection is already running; "
                 "keeping it");
            return false;
        }
        i.active = true;
        i.stacks.clear();
        i.sampledThreads.clear();
        i.samples.store(0, std::memory_order_relaxed);
        i.periodUs = std::max<std::uint64_t>(period_us, 50);
    }

    // Drop states of threads that exited since the last collection.
    {
        std::lock_guard<std::mutex> lock(i.threadsMutex);
        i.threads.erase(
            std::remove_if(i.threads.begin(), i.threads.end(),
                           [](const auto &s) {
                               return !s->alive.load(
                                   std::memory_order_relaxed);
                           }),
            i.threads.end());
    }

    // The pool accounts while g_enabled holds; its totals cover
    // exactly this collection.
    parallel::resetPoolStats();
    i.startNs = stats::monotonicNowNs();
    i.stopRequested.store(false, std::memory_order_release);
    i.sampler = std::thread([&i] { samplerLoop(i); });
    detail::g_enabled.store(true, std::memory_order_release);
    return true;
}

void
Profiler::stop()
{
    Impl &i = impl();
    {
        std::lock_guard<std::mutex> lock(i.resultsMutex);
        if (!i.active)
            return;
        i.active = false;
    }
    detail::g_enabled.store(false, std::memory_order_release);
    i.stopRequested.store(true, std::memory_order_release);
    if (i.sampler.joinable())
        i.sampler.join();
    // Snapshot before reading the clock: a worker's chunks run one
    // at a time, after start() and before their flush into the
    // snapshot, so its busy ns never exceed the wall ns.
    const parallel::PoolStats pool = parallel::poolStatsSnapshot();
    const std::int64_t wall_ns = stats::monotonicNowNs() - i.startNs;

    // Publish the collection-level and pool-attribution stats.
    static stats::Counter &stat_samples = stats::counter(
        "profiler.samples", "stack samples taken by the profiler");
    static stats::Accumulator &stat_busy_fraction =
        stats::accumulator(
            "parallel.pool.worker_busy_fraction",
            "per-worker busy fraction over one profiler collection");

    stat_samples += i.samples.load(std::memory_order_relaxed);
    for (const std::uint64_t busy_ns : pool.workerBusyNs)
        stat_busy_fraction.sample(static_cast<double>(busy_ns) /
                                  static_cast<double>(wall_ns));
}

bool
Profiler::running() const
{
    Impl &i = impl();
    std::lock_guard<std::mutex> lock(i.resultsMutex);
    return i.active;
}

std::uint64_t
Profiler::sampleCount() const
{
    return impl().samples.load(std::memory_order_relaxed);
}

std::uint64_t
Profiler::periodUs() const
{
    Impl &i = impl();
    std::lock_guard<std::mutex> lock(i.resultsMutex);
    return i.periodUs;
}

std::vector<FoldedStack>
Profiler::folded() const
{
    Impl &i = impl();
    std::lock_guard<std::mutex> lock(i.resultsMutex);
    std::vector<FoldedStack> out;
    out.reserve(i.stacks.size());
    for (const auto &[stack, count] : i.stacks)
        out.push_back({stack, count});
    return out;
}

std::vector<FrameTotals>
Profiler::frameTotals() const
{
    Impl &i = impl();
    std::map<std::string, FrameTotals> totals;
    {
        std::lock_guard<std::mutex> lock(i.resultsMutex);
        for (const auto &[stack, count] : i.stacks) {
            const std::vector<std::string> frames =
                splitStack(stack);
            if (frames.empty())
                continue;
            // Self time goes to the leaf; total counts each distinct
            // frame once per stack (recursion must not double-count).
            std::set<std::string> seen;
            for (const std::string &frame : frames) {
                if (!seen.insert(frame).second)
                    continue;
                FrameTotals &t = totals[frame];
                t.label = frame;
                t.total += count;
            }
            totals[frames.back()].self += count;
        }
    }
    std::vector<FrameTotals> out;
    out.reserve(totals.size());
    for (auto &[label, t] : totals) {
        (void)label;
        out.push_back(std::move(t));
    }
    std::sort(out.begin(), out.end(),
              [](const FrameTotals &a, const FrameTotals &b) {
                  if (a.self != b.self)
                      return a.self > b.self;
                  return a.label < b.label;
              });
    return out;
}

void
Profiler::writeFolded(std::ostream &os) const
{
    for (const FoldedStack &f : folded())
        os << f.stack << " " << f.count << "\n";
}

void
Profiler::writeTopReport(std::ostream &os, int top_n) const
{
    const std::uint64_t total_samples = sampleCount();
    Table table({"frame", "self", "self%", "total", "total%"});
    int rows = 0;
    for (const FrameTotals &t : frameTotals()) {
        if (top_n > 0 && rows >= top_n)
            break;
        ++rows;
        const auto pct = [total_samples](std::uint64_t n) {
            std::ostringstream oss;
            oss.precision(1);
            oss << std::fixed
                << (total_samples
                        ? 100.0 * static_cast<double>(n) /
                              static_cast<double>(total_samples)
                        : 0.0)
                << "%";
            return oss.str();
        };
        table.row()
            .add(t.label)
            .add(static_cast<long long>(t.self))
            .add(pct(t.self))
            .add(static_cast<long long>(t.total))
            .add(pct(t.total));
    }
    table.render(os);
    os << total_samples << " samples @ " << periodUs() << " us\n";
}

std::string
Profiler::footerSection(int top_n) const
{
    Impl &i = impl();
    std::size_t thread_count = 0;
    std::size_t stack_count = 0;
    {
        std::lock_guard<std::mutex> lock(i.resultsMutex);
        thread_count = i.sampledThreads.size();
        stack_count = i.stacks.size();
    }
    std::ostringstream oss;
    oss << "{\"schema\": \"" << profSchema
        << "\", \"period_us\": " << periodUs()
        << ", \"samples\": " << sampleCount()
        << ", \"threads\": " << thread_count
        << ", \"stacks\": " << stack_count << ", \"top\": [";
    int rows = 0;
    for (const FrameTotals &t : frameTotals()) {
        if (top_n > 0 && rows >= top_n)
            break;
        oss << (rows ? ", " : "") << "{\"frame\": \"" << t.label
            << "\", \"self\": " << t.self
            << ", \"total\": " << t.total << "}";
        ++rows;
    }
    oss << "]}";
    return oss.str();
}

void
Profiler::reset()
{
    Impl &i = impl();
    std::lock_guard<std::mutex> lock(i.resultsMutex);
    if (i.active)
        return;
    i.stacks.clear();
    i.sampledThreads.clear();
    i.samples.store(0, std::memory_order_relaxed);
}

std::vector<FoldedStack>
parseFolded(std::istream &is)
{
    std::vector<FoldedStack> out;
    std::string line;
    while (std::getline(is, line)) {
        const std::size_t space = line.find_last_of(' ');
        if (space == std::string::npos || space == 0 ||
            space + 1 >= line.size())
            continue;
        char *end = nullptr;
        const unsigned long long count =
            std::strtoull(line.c_str() + space + 1, &end, 10);
        if (end == line.c_str() + space + 1 || *end != '\0')
            continue;
        out.push_back({line.substr(0, space),
                       static_cast<std::uint64_t>(count)});
    }
    return out;
}

void
pushFrame(const char *label, std::size_t len)
{
    ThreadState *state = threadState();
    std::lock_guard<std::mutex> lock(state->mutex);
    if (state->depth < maxDepth)
        assignLabel(state->frames[state->depth], label, len);
    ++state->depth; // deeper pushes still count (popped in pairs)
}

void
popFrame()
{
    ThreadState *state = threadState();
    std::lock_guard<std::mutex> lock(state->mutex);
    if (state->depth > 0)
        --state->depth;
}

void
setThreadName(const char *name)
{
    t_name = name;
}

} // namespace otft::prof
