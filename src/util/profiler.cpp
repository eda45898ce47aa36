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
 * One thread's record, shared by the profiler and the timeline
 * (util/trace) and registered on the thread's first frame push or
 * timeline event. The owning thread changes `frames`/`depth` and
 * appends `events` under `mutex`, which is innermost: no other lock
 * is taken while it is held. The sampler waits for it, so every
 * sample of a live thread with frames records its stack.
 */
struct Record
{
    std::mutex mutex;
    std::size_t depth = 0;
    std::string frames[maxDepth];
    /** Stack-root label; points at a string literal ("main", ...). */
    const char *name = "main";
    /** Timeline events not yet taken by the collection. */
    std::vector<detail::Event> events;
    /** Registration index: the thread's timeline tid. */
    int tid = 0;
    /** Set when the thread exits (guarded by Impl::recordsMutex). */
    bool exited = false;

    Record()
    {
        for (std::string &f : frames)
            f.reserve(reserveLabel);
    }
};

struct Impl
{
    /**
     * Every registered record. A record is freed once its thread has
     * exited and its events are taken, so the sampler and
     * takeEvents() may use any record they find here.
     */
    std::mutex recordsMutex;
    std::vector<std::unique_ptr<Record>> records;
    int nextTid = 1;

    /** Sampler lifecycle. */
    std::thread sampler;
    std::atomic<bool> stopRequested{false};
    std::atomic<std::uint64_t> samples{0};

    /** Collection results (guarded by resultsMutex once stopped). */
    mutable std::mutex resultsMutex;
    std::map<std::string, std::uint64_t> stacks;
    /** Tids of the threads seen alive by at least one sample. */
    std::set<int> sampledThreads;
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

/**
 * Free the records of exited threads with no events left to take.
 * Caller holds recordsMutex, which every writer of an exited
 * thread's events holds too.
 */
void
freeExited(Impl &i)
{
    std::erase_if(i.records, [](const std::unique_ptr<Record> &r) {
        return r->exited && r->events.empty();
    });
}

thread_local const char *t_name = "main";

/** Marks the calling thread's record exited when the thread ends. */
struct RecordHolder
{
    Record *record = nullptr;
    ~RecordHolder()
    {
        if (!record)
            return;
        Impl &i = impl();
        std::lock_guard<std::mutex> lock(i.recordsMutex);
        record->exited = true;
        record = nullptr; // may be freed next
        freeExited(i);
    }
};

/** The calling thread's record, registered on first use. */
Record &
threadRecord()
{
    thread_local RecordHolder holder;
    if (!holder.record) {
        auto record = std::make_unique<Record>();
        record->name = t_name;
        Impl &i = impl();
        std::lock_guard<std::mutex> lock(i.recordsMutex);
        record->tid = i.nextTid++;
        holder.record = record.get();
        i.records.push_back(std::move(record));
    }
    return *holder.record;
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

        std::lock_guard<std::mutex> lock(i.recordsMutex);
        // Results lock second (nothing nests them the other way):
        // accessors may read folded()/frameTotals() while the
        // collection is still running.
        std::lock_guard<std::mutex> results(i.resultsMutex);
        for (const auto &record : i.records) {
            if (record->exited)
                continue;
            i.sampledThreads.insert(record->tid);

            std::unique_lock<std::mutex> frames(record->mutex);
            const std::size_t depth = record->depth;
            if (depth == 0)
                continue; // idle thread: counted above, no stack
            key.assign(record->name);
            const std::size_t copied = std::min(depth, maxDepth);
            for (std::size_t d = 0; d < copied; ++d) {
                key.push_back(';');
                key.append(record->frames[d]);
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
    Record &record = threadRecord();
    std::lock_guard<std::mutex> lock(record.mutex);
    if (record.depth < maxDepth)
        assignLabel(record.frames[record.depth], label, len);
    ++record.depth; // deeper pushes still count (popped in pairs)
}

void
popFrame()
{
    Record &record = threadRecord();
    std::lock_guard<std::mutex> lock(record.mutex);
    if (record.depth > 0)
        --record.depth;
}

void
setThreadName(const char *name)
{
    t_name = name;
}

namespace detail {

void
appendEvent(const std::atomic<bool> &collecting, const char *name,
            std::int64_t start_ns, std::int64_t end_ns)
{
    Record &record = threadRecord();
    std::lock_guard<std::mutex> lock(record.mutex);
    // Checked under the lock: trace::stop() clears the flag before it
    // takes this record's events, so an event that misses the take
    // is dropped, never kept for a later collection.
    if (collecting.load(std::memory_order_acquire))
        record.events.push_back({name, start_ns, end_ns, record.tid});
}

std::vector<Event>
takeEvents()
{
    Impl &i = impl();
    std::vector<Event> taken;
    std::lock_guard<std::mutex> lock(i.recordsMutex);
    for (const auto &record : i.records) {
        std::lock_guard<std::mutex> events(record->mutex);
        taken.insert(taken.end(), record->events.begin(),
                     record->events.end());
        record->events.clear();
    }
    freeExited(i);
    return taken;
}

std::size_t
eventCount()
{
    Impl &i = impl();
    std::lock_guard<std::mutex> lock(i.recordsMutex);
    std::size_t count = 0;
    for (const auto &record : i.records) {
        std::lock_guard<std::mutex> events(record->mutex);
        count += record->events.size();
    }
    return count;
}

} // namespace detail

} // namespace otft::prof
