#include "util/trace.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <iomanip>
#include <mutex>
#include <vector>

#include "util/logging.hpp"

namespace otft::trace {

namespace {

/**
 * The timeline collection. Events live in the thread records of
 * util/profiler; the collection only owns the flag, the path and the
 * epoch.
 */
struct Collector
{
    std::mutex mutex;
    std::atomic<bool> active{false};
    std::string path;
    /** Collection epoch: event timestamps are relative to this. */
    std::int64_t epochNs = 0;
};

Collector &
collector()
{
    static Collector c;
    return c;
}

} // namespace

void
start(const std::string &path)
{
    Collector &c = collector();
    std::lock_guard<std::mutex> lock(c.mutex);
    c.path = path;
    c.epochNs = stats::monotonicNowNs();
    prof::detail::takeEvents(); // drop an unstopped collection
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
    // Merge every thread's events into one stream, ordered by start
    // time (ties broken by tid) so the output is stable for a given
    // set of recorded events.
    std::vector<prof::detail::Event> events = prof::detail::takeEvents();
    std::stable_sort(events.begin(), events.end(),
                     [](const prof::detail::Event &a,
                        const prof::detail::Event &b) {
                         if (a.startNs != b.startNs)
                             return a.startNs < b.startNs;
                         return a.tid < b.tid;
                     });

    std::ofstream os(c.path);
    if (!os)
        fatal("trace: cannot write ", c.path);
    os << "[";
    // Chrome trace_event JSON array of complete events; timestamps
    // and durations are microseconds, written with nanosecond
    // resolution (fixed, not significant digits, so late spans keep
    // their precision). tid distinguishes the emitting worker thread
    // in the timeline view.
    os << std::fixed << std::setprecision(3);
    bool first = true;
    for (const prof::detail::Event &e : events) {
        if (!first)
            os << ",";
        first = false;
        os << "\n{\"name\": \"" << e.name
           << "\", \"cat\": \"otft\", \"ph\": \"X\", \"pid\": 1"
           << ", \"tid\": " << e.tid << ", \"ts\": "
           << static_cast<double>(e.startNs - c.epochNs) * 1e-3
           << ", \"dur\": "
           << static_cast<double>(e.endNs - e.startNs) * 1e-3 << "}";
    }
    os << "\n]\n";
    if (!events.empty())
        inform("trace: wrote ", events.size(), " events to ", c.path);
}

bool
collecting()
{
    return collector().active.load(std::memory_order_acquire);
}

std::size_t
eventCount()
{
    return prof::detail::eventCount();
}

void
recordEvent(const char *name, std::int64_t start_ns,
            std::int64_t end_ns)
{
    if (collecting())
        prof::detail::appendEvent(collector().active, name, start_ns,
                                  end_ns);
}

void
recordInstant(const char *name)
{
    if (!collecting())
        return;
    const std::int64_t now_ns = stats::monotonicNowNs();
    prof::detail::appendEvent(collector().active, name, now_ns, now_ns);
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
