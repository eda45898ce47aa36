/**
 * @file
 * Solver diagnostics: the per-context breakdown of the solver's
 * registry counters, plus the bookkeeping for failure-forensics dumps.
 *
 * Solver events are counted once, through diag::Counter: each add()
 * bumps the stats registry counter, and while the collector is on
 * (`--diag-json`/`--diag-dir`) also adds the count under the calling
 * thread's context label, keyed by the counter's registry name. So
 * the breakdown summed over contexts equals the registry total.
 *
 *  - callers label their work with a labelled trace::Scope
 *    ("liberty.inv.pin0", "explorer.point.fe2.alu2.s9"); the label is
 *    thread-local, so every worker of the parallel pool aggregates
 *    under its own task;
 *  - with dumps on (`--diag-dir`), a failing solve writes a
 *    content-addressed dump via circuit/dump, which takes its path
 *    from here and registers it here (per-process cap, dedupe). The
 *    Newton iteration log and the dump format live in src/circuit.
 *
 * dumpJson() exports the whole picture as one schema-versioned
 * document ("otft-diag-3") that `--diag-json` writes at session exit.
 *
 * Concurrency: the collector takes one mutex per breakdown update.
 */

#ifndef OTFT_UTIL_DIAG_HPP
#define OTFT_UTIL_DIAG_HPP

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace otft::stats {
class Counter;
} // namespace otft::stats

namespace otft::diag {

/** Schema tag of the --diag-json document. */
inline constexpr const char *diagSchema = "otft-diag-3";

/** The process-wide diagnostics collector. */
class Collector
{
  public:
    static Collector &instance();

    /** Master enable; everything is inert while false (the default). */
    void setEnabled(bool enabled);
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Enable failure dumps under `dir` (created if missing; fatal when
     * creation fails). Implies setEnabled(true). Empty disables dumps.
     */
    void setDumpDirectory(const std::string &dir);
    std::string dumpDirectory() const;
    bool
    dumpsEnabled() const
    {
        return dumps_.load(std::memory_order_relaxed);
    }

    /**
     * Cap on dump files per process (default 32): homotopy fallbacks
     * probe dozens of intentionally hard solves, and one pathological
     * sweep must not fill the disk. Dumps past the cap are counted but
     * not written.
     */
    void setMaxDumps(std::size_t n);

    /**
     * Register a failure dump path. @return false when the per-process
     * cap has been reached (the caller should skip writing the file).
     */
    bool recordDump(const std::string &path);

    std::vector<std::string> dumpPaths() const;

    /**
     * Counts per context label ("" holds unlabeled work), each keyed
     * by registry counter name.
     */
    using Breakdown =
        std::map<std::string, std::map<std::string, std::uint64_t>>;
    Breakdown breakdown() const;

    /** Write the otft-diag-3 JSON document. */
    void dumpJson(std::ostream &os) const;

    /** Drop the breakdown and every dump path. */
    void reset();

  private:
    friend class Counter;

    Collector() = default;

    void add(const std::string &context, const char *name,
             std::uint64_t n);

    std::atomic<bool> enabled_{false};
    std::atomic<bool> dumps_{false};
    mutable std::mutex mutex_;
    std::string dumpDir_;
    std::size_t maxDumps_ = 32;
    std::size_t dumpsSkipped_ = 0;
    Breakdown contexts_;
    std::vector<std::string> dumpPaths_;
};

/** @return true when the process-wide collector is enabled. */
inline bool
enabled()
{
    return Collector::instance().enabled();
}

/**
 * A stats registry counter broken down per context: add() bumps the
 * registry counter `name`, and while the collector is on also adds
 * the count under context(). Construct once per call site (a
 * function-local static, like stats::counter()).
 */
class Counter
{
  public:
    Counter(const char *name, const char *description);

    void add(std::uint64_t n = 1) const;

  private:
    const char *name_;
    stats::Counter &counter_;
};

/**
 * The calling thread's context label for aggregation
 * ("liberty.inv.pin0"; "" when unlabeled). Labelled trace::Scopes set
 * it, and nested labels join with '/'. The label is thread-local, so
 * every worker of the parallel pool aggregates under its own task.
 */
const std::string &context();

namespace detail {
/**
 * Nest `label` into the calling thread's context. @return the context
 * length to pass to leaveContext() (trace::Scope pairs the two).
 */
std::size_t enterContext(const std::string &label);

/** Truncate the calling thread's context back to `length`. */
void leaveContext(std::size_t length);
} // namespace detail

} // namespace otft::diag

#endif // OTFT_UTIL_DIAG_HPP
