/**
 * @file
 * The observability scope: one RAII type for every instrumented region
 * (trace::Scope), and the Chrome trace_event timeline it can feed
 * (openable in about:tracing or https://ui.perfetto.dev).
 *
 * A Scope has three independent parts:
 *
 *  - timed: on exit it samples its elapsed seconds into a stats
 *    accumulator and, for a span, records a timeline event;
 *  - labelled: it nests a label into the calling thread's diag context
 *    (joined with '/'), building the label through a callable only
 *    when the diag collector or the profiler wants it;
 *  - profiled: while the sampling profiler runs, its frame (or label)
 *    is one frame of the thread's profiler stack.
 *
 * Usage:
 *
 *     OTFT_TRACE_SCOPE("sta.analyze");     // span: time.sta.analyze,
 *                                          // timeline event, frame
 *     trace::Scope frame("mna.lu_factor"); // profiler frame only
 *     trace::Scope timer("mna.solve_newton", &stat_time);
 *                                          // accumulator + frame
 *     trace::Scope ctx(trace::labelled,
 *                      [&] { return "liberty." + name; });
 *
 * Span names follow the same `layer.noun.verb` convention as stats.
 * Timing is inclusive: a parent span's time contains its nested
 * children, exactly as in the Chrome timeline view. Every enable check
 * lives in the Scope: a scope with an accumulator always times itself;
 * with the timeline, the diag collector and the profiler all off, a
 * scope without one reads no clock, allocates nothing and never calls
 * its label builder.
 *
 * Concurrency: scopes may close on any thread. Each thread appends its
 * events to its one record, which util/profiler owns and which also
 * holds the thread's profiler frames. stop() takes the events of
 * every record, those of exited threads included, and merges them
 * into one Chrome stream. An event's tid is its thread's record
 * index, distinct per thread and stable for the process's life.
 * start()/stop() themselves should be called from one thread,
 * conventionally the cli::Session owner.
 */

#ifndef OTFT_UTIL_TRACE_HPP
#define OTFT_UTIL_TRACE_HPP

#include <cstdint>
#include <string>

#include "util/diag.hpp"
#include "util/profiler.hpp"
#include "util/stats_registry.hpp"

namespace otft::trace {

/**
 * Begin collecting a Chrome trace_event timeline. Events buffer in
 * memory until stop() writes them to `path` as a JSON array (the
 * format both about:tracing and Perfetto accept). Collecting twice
 * without an intervening stop() discards the first buffer.
 */
void start(const std::string &path);

/** Write buffered events to the start() path and stop collecting. */
void stop();

/** @return true while a timeline collection is active. */
bool collecting();

/** Number of buffered timeline events (for tests). */
std::size_t eventCount();

/** Internal: record one complete ("ph":"X") event. */
void recordEvent(const char *name, std::int64_t start_ns,
                 std::int64_t end_ns);

/**
 * Record a zero-width marker on the timeline (profiler start/stop,
 * cache decisions). No-op, reading no clock, unless a collection is
 * active. `name` must be a string literal: the event keeps the
 * pointer, not a copy.
 */
void recordInstant(const char *name);

/** Whether a timed scope also records a timeline event. */
enum class Timeline { Off, On };

/** Tag selecting Scope's labelled constructor. */
struct Labelled
{
};
inline constexpr Labelled labelled{};

/** The RAII observability scope; see the file comment. */
class Scope
{
  public:
    /**
     * A timed and/or profiled scope. `frame` (a string literal, or
     * null for none) is the profiler frame and the timeline event
     * name; `acc` (or null) receives the elapsed seconds; Timeline::On
     * also records a timeline event while a collection is active.
     */
    explicit Scope(const char *frame, stats::Accumulator *acc = nullptr,
                   Timeline timeline = Timeline::Off)
        : frame_(frame), acc_(acc), event_(timeline == Timeline::On)
    {
        timed_ = acc_ != nullptr || (event_ && collecting());
        if (timed_)
            startNs_ = stats::monotonicNowNs();
        if (frame_ != nullptr && prof::enabled()) {
            prof::pushFrame(frame_);
            profPushed_ = true;
        }
    }

    /**
     * A labelled scope: `build()` returns the label, and runs only
     * when the diag collector or the profiler is on. The label nests
     * into the diag context while diag is on and is one profiler
     * frame while the profiler runs; an empty label does neither.
     */
    template <typename BuildLabel>
    Scope(Labelled, BuildLabel &&build)
    {
        const bool diag_on = diag::enabled();
        const bool prof_on = prof::enabled();
        if (diag_on || prof_on)
            enterLabel(build(), diag_on, prof_on);
    }

    ~Scope()
    {
        if (profPushed_)
            prof::popFrame();
        if (contextPushed_)
            diag::detail::leaveContext(contextLength_);
        if (!timed_)
            return;
        const std::int64_t end_ns = stats::monotonicNowNs();
        if (acc_ != nullptr)
            acc_->sample(static_cast<double>(end_ns - startNs_) * 1e-9);
        if (event_ && collecting())
            recordEvent(frame_, startNs_, end_ns);
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    void enterLabel(const std::string &label, bool diag_on,
                    bool prof_on);

    const char *frame_ = nullptr;
    stats::Accumulator *acc_ = nullptr;
    std::int64_t startNs_ = 0;
    /** Diag context length to restore on exit. */
    std::size_t contextLength_ = 0;
    bool event_ = false;
    bool timed_ = false;
    bool profPushed_ = false;
    bool contextPushed_ = false;
};

} // namespace otft::trace

#define OTFT_TRACE_CONCAT2(a, b) a##b
#define OTFT_TRACE_CONCAT(a, b) OTFT_TRACE_CONCAT2(a, b)

/**
 * Span the enclosing scope under `name` (a string literal): time it
 * into the stats accumulator `time.<name>`, record it in the active
 * timeline collection, if any, and push it as a profiler frame.
 */
#define OTFT_TRACE_SCOPE(name)                                          \
    static ::otft::stats::Accumulator &OTFT_TRACE_CONCAT(               \
        otft_trace_acc_, __LINE__) =                                    \
        ::otft::stats::accumulator("time." name,                        \
                                   "seconds in " name " spans");        \
    ::otft::trace::Scope OTFT_TRACE_CONCAT(otft_trace_scope_, __LINE__)( \
        name, &OTFT_TRACE_CONCAT(otft_trace_acc_, __LINE__),            \
        ::otft::trace::Timeline::On)

#endif // OTFT_UTIL_TRACE_HPP
