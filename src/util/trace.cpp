#include "util/trace.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <iomanip>
#include <memory>
#include <mutex>
#include <vector>

#include "util/logging.hpp"

namespace otft::trace {

namespace {

struct Event
{
    const char *name;
    std::int64_t startNs;
    std::int64_t endNs;
};

/**
 * One thread's event buffer. recordEvent appends under the buffer's
 * own mutex — uncontended in steady state (each thread owns one), but
 * it makes the stop()-side merge safe even if a straggler thread is
 * still emitting.
 */
struct ThreadBuffer
{
    std::mutex mutex;
    std::vector<Event> events;
    /** Stable display id in the merged timeline (registration order). */
    int tid;
};

struct Collector
{
    std::mutex mutex;
    std::atomic<bool> active{false};
    /**
     * Collection generation: bumped by start() and stop(). A thread's
     * cached buffer pointer is only valid while its cached generation
     * matches, so buffers never leak across collections.
     */
    std::atomic<std::uint64_t> generation{1};
    std::string path;
    /** Collection epoch: event timestamps are relative to this. */
    std::int64_t epochNs = 0;
    std::vector<std::unique_ptr<ThreadBuffer>> buffers;
    /**
     * Buffers from finished collections, recycled instead of freed:
     * a straggler thread that races a stop() may still touch its old
     * buffer (its event is dropped by the generation check), so the
     * storage must outlive the collection. Bounded by the maximum
     * number of concurrently-registered threads.
     */
    std::vector<std::unique_ptr<ThreadBuffer>> retired;
    int nextTid = 1;
};

Collector &
collector()
{
    static Collector c;
    return c;
}

thread_local struct
{
    std::uint64_t generation = 0;
    ThreadBuffer *buffer = nullptr;
} t_buffer;

/** This thread's buffer for the current collection (or null). */
ThreadBuffer *
threadBuffer()
{
    Collector &c = collector();
    const std::uint64_t gen = c.generation.load(
        std::memory_order_acquire);
    if (t_buffer.generation == gen)
        return t_buffer.buffer;

    std::lock_guard<std::mutex> lock(c.mutex);
    if (!c.active.load(std::memory_order_relaxed))
        return nullptr;
    std::unique_ptr<ThreadBuffer> buffer;
    if (!c.retired.empty()) {
        buffer = std::move(c.retired.back());
        c.retired.pop_back();
        std::lock_guard<std::mutex> buf_lock(buffer->mutex);
        buffer->events.clear();
    } else {
        buffer = std::make_unique<ThreadBuffer>();
        buffer->events.reserve(1024);
    }
    buffer->tid = c.nextTid++;
    ThreadBuffer *raw = buffer.get();
    c.buffers.push_back(std::move(buffer));
    t_buffer.generation = c.generation.load(std::memory_order_relaxed);
    t_buffer.buffer = raw;
    return raw;
}

} // namespace

void
start(const std::string &path)
{
    Collector &c = collector();
    std::lock_guard<std::mutex> lock(c.mutex);
    c.path = path;
    c.epochNs = stats::monotonicNowNs();
    for (auto &buffer : c.buffers)
        c.retired.push_back(std::move(buffer));
    c.buffers.clear();
    c.nextTid = 1;
    c.generation.fetch_add(1, std::memory_order_release);
    c.active.store(true, std::memory_order_release);
}

void
stop()
{
    Collector &c = collector();
    if (!c.active.load(std::memory_order_acquire))
        return;
    c.active.store(false, std::memory_order_release);

    std::lock_guard<std::mutex> lock(c.mutex);
    // Invalidate every thread's cached buffer pointer before the
    // buffers are destroyed.
    c.generation.fetch_add(1, std::memory_order_release);

    // Merge per-thread buffers into one stream, ordered by start time
    // (ties broken by tid) so the output is stable for a given set of
    // recorded events.
    struct Merged
    {
        Event event;
        int tid;
    };
    std::vector<Merged> merged;
    for (const auto &buffer : c.buffers) {
        std::lock_guard<std::mutex> buf_lock(buffer->mutex);
        for (const Event &e : buffer->events)
            merged.push_back({e, buffer->tid});
    }
    std::stable_sort(merged.begin(), merged.end(),
                     [](const Merged &a, const Merged &b) {
                         if (a.event.startNs != b.event.startNs)
                             return a.event.startNs < b.event.startNs;
                         return a.tid < b.tid;
                     });

    auto recycle = [&c] {
        for (auto &buffer : c.buffers)
            c.retired.push_back(std::move(buffer));
        c.buffers.clear();
    };

    std::ofstream os(c.path);
    if (!os) {
        recycle();
        fatal("trace: cannot write ", c.path);
    }
    os << "[";
    // Chrome trace_event JSON array of complete events; timestamps
    // and durations are microseconds, written with nanosecond
    // resolution (fixed, not significant digits, so late spans keep
    // their precision). tid distinguishes the emitting worker thread
    // in the timeline view.
    os << std::fixed << std::setprecision(3);
    bool first = true;
    for (const Merged &m : merged) {
        if (!first)
            os << ",";
        first = false;
        os << "\n{\"name\": \"" << m.event.name
           << "\", \"cat\": \"otft\", \"ph\": \"X\", \"pid\": 1"
           << ", \"tid\": " << m.tid << ", \"ts\": "
           << static_cast<double>(m.event.startNs - c.epochNs) * 1e-3
           << ", \"dur\": "
           << static_cast<double>(m.event.endNs - m.event.startNs) *
                  1e-3
           << "}";
    }
    os << "\n]\n";
    if (!merged.empty())
        inform("trace: wrote ", merged.size(), " events to ", c.path);
    recycle();
}

bool
collecting()
{
    return collector().active.load(std::memory_order_acquire);
}

std::size_t
eventCount()
{
    Collector &c = collector();
    std::lock_guard<std::mutex> lock(c.mutex);
    std::size_t count = 0;
    for (const auto &buffer : c.buffers) {
        std::lock_guard<std::mutex> buf_lock(buffer->mutex);
        count += buffer->events.size();
    }
    return count;
}

void
recordEvent(const char *name, std::int64_t start_ns,
            std::int64_t end_ns)
{
    if (!collecting())
        return;
    ThreadBuffer *buffer = threadBuffer();
    if (!buffer)
        return;
    Collector &c = collector();
    std::lock_guard<std::mutex> lock(buffer->mutex);
    // Re-check under the lock: a stop() that raced us has already
    // merged this buffer (it bumps the generation, then takes every
    // buffer mutex), so the event would be lost anyway — drop it
    // instead of writing into a retired buffer.
    if (t_buffer.generation !=
        c.generation.load(std::memory_order_acquire))
        return;
    buffer->events.push_back({name, start_ns, end_ns});
}

void
recordInstant(const char *name)
{
    const std::int64_t now_ns = stats::monotonicNowNs();
    recordEvent(name, now_ns, now_ns);
}

void
Scope::enterLabel(const std::string &label, bool diag_on, bool prof_on)
{
    if (label.empty())
        return;
    if (prof_on) {
        prof::pushFrame(label);
        profPushed_ = true;
    }
    if (diag_on) {
        contextLength_ = diag::detail::enterContext(label);
        contextPushed_ = true;
    }
}

} // namespace otft::trace
