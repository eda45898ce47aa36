/**
 * @file
 * In-process sampling profiler with worker-pool attribution.
 *
 * A dedicated sampler thread wakes on a configurable period (default
 * 1 ms) and walks every registered thread's context stack — the
 * frames pushed by `trace::Scope`s (spans, bare frames and diag
 * labels) already threaded through circuit, liberty, sta, core, and
 * arch — accumulating one count per distinct stack. On stop() the
 * collection is available as:
 *
 *  - a collapsed-stack ("folded") stream, one `root;a;b N` line per
 *    stack, directly consumable by flamegraph.pl and speedscope;
 *  - a top-N self/total text report (self = samples where the frame
 *    was the leaf, total = samples where it appeared anywhere);
 *  - a compact schema-versioned `otft-prof-2` JSON section that
 *    cli::Session merges into the bench stats footer.
 *
 * Stack roots name the sampled thread's role ("main" for the session
 * owner, "worker" for util/parallel pool threads) — deliberately
 * without a numeric id, so stack labels are deterministic across runs
 * and job counts. Worker-pool attribution comes from the pool's own
 * exact accounting (util/parallel), which runs only while a collection
 * does: start() resets it, and stop() publishes each worker's busy
 * time over the collection's wall time into the stats registry. The
 * sampler thread adds one queue-depth histogram sample per period.
 *
 * Each thread has one record, owned by this module and registered on
 * the thread's first frame push or timeline event: its frame stack
 * and its util/trace timeline events behind one mutex, taken last.
 * Its registration index is the thread's timeline tid. A record is
 * freed once its thread has exited and its events are taken; the
 * sampler skips records of exited threads.
 *
 * Cost model: while the profiler is *disabled* (the default), a frame
 * push is one relaxed atomic load — call sites pay nothing else.
 * While enabled, a push copies the label into preallocated storage
 * in the thread's record under the record's mutex. The sampler takes
 * the same mutex to copy the stack, so a push may wait for one stack
 * copy, and no sample is ever dropped.
 */

#ifndef OTFT_UTIL_PROFILER_HPP
#define OTFT_UTIL_PROFILER_HPP

#include <atomic>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <string>
#include <vector>

namespace otft::prof {

/** Schema tag of the JSON section merged into the stats footer. */
inline constexpr const char *profSchema = "otft-prof-2";

namespace detail {
/** Master enable; read on every frame push (relaxed). */
extern std::atomic<bool> g_enabled;

/** One complete timeline event, as buffered in a thread's record. */
struct Event
{
    const char *name;
    std::int64_t startNs;
    std::int64_t endNs;
    /** The recording thread's registration index. */
    int tid;
};

/**
 * The timeline's access to the thread records (util/trace is the one
 * caller). appendEvent appends to the calling thread's record if
 * `collecting` still holds under the record's mutex; takeEvents moves
 * every record's events out, exited threads' included, and frees the
 * records of exited threads; eventCount counts what is buffered.
 */
void appendEvent(const std::atomic<bool> &collecting, const char *name,
                 std::int64_t start_ns, std::int64_t end_ns);
std::vector<Event> takeEvents();
std::size_t eventCount();
} // namespace detail

/** @return true while a sampling collection is running. */
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/** One aggregated call stack: "root;frame;frame" and its samples. */
struct FoldedStack
{
    std::string stack;
    std::uint64_t count = 0;
};

/** Per-frame aggregate for the top-N report. */
struct FrameTotals
{
    std::string label;
    /** Samples with this frame as the innermost (leaf) frame. */
    std::uint64_t self = 0;
    /** Samples with this frame anywhere on the stack (once each). */
    std::uint64_t total = 0;
};

/** The process-wide sampling profiler. */
class Profiler
{
  public:
    static Profiler &instance();

    /**
     * Begin a collection. @return false (with a warning) when one is
     * already running — nested collections are not supported, so e.g.
     * `perf_suite --profile` under a session-wide `--profile-folded`
     * keeps the outer collection. Clears the previous results and
     * the pool's busy-time accounting. `period_us` is the sampling
     * period (clamped to >= 50).
     */
    bool start(std::uint64_t period_us = 1000);

    /**
     * Join the sampler and aggregate the collection. Publishes the
     * sample counters and `parallel.pool.worker_busy_fraction` (one
     * sample per pool worker: its exact busy ns over the collection's
     * wall ns) into the stats registry. Idempotent.
     */
    void stop();

    bool running() const;

    /** Samples taken so far (readable while running). */
    std::uint64_t sampleCount() const;
    /** The period of the last (or current) collection. */
    std::uint64_t periodUs() const;

    /** Aggregated stacks of the last collection, sorted by name. */
    std::vector<FoldedStack> folded() const;

    /** Self/total per frame label, sorted by self descending. */
    std::vector<FrameTotals> frameTotals() const;

    /** Write the collapsed-stack stream (`stack N` per line). */
    void writeFolded(std::ostream &os) const;

    /** Render the top-N self/total table. */
    void writeTopReport(std::ostream &os, int top_n) const;

    /**
     * The compact otft-prof-2 JSON object (schema, period, samples,
     * threads, stacks, top frames) for the bench footer.
     */
    std::string footerSection(int top_n = 5) const;

    /** Drop the last collection's results. */
    void reset();

  private:
    Profiler() = default;
};

/**
 * Parse a writeFolded() stream back into stacks (round-trip tests and
 * artifact validation). Malformed lines are skipped.
 */
std::vector<FoldedStack> parseFolded(std::istream &is);

/**
 * Push/pop one frame on the calling thread's context stack. Callers
 * must pair them exactly; trace::Scope is the one caller that does.
 * `;`, whitespace, and control characters in labels are mapped to '_'
 * so the folded format stays parseable.
 */
void pushFrame(const char *label, std::size_t len);
void popFrame();

inline void
pushFrame(const char *label)
{
    pushFrame(label, std::strlen(label));
}

inline void
pushFrame(const std::string &label)
{
    pushFrame(label.data(), label.size());
}

/**
 * Name the calling thread's stack root ("worker" for pool threads).
 * Unnamed threads sample under "main". Cheap: stores a pointer to the
 * literal; no registration happens until the thread pushes a frame
 * or records a timeline event.
 */
void setThreadName(const char *name);

} // namespace otft::prof

#endif // OTFT_UTIL_PROFILER_HPP
