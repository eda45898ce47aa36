/**
 * @file
 * Solver diagnostics sink: convergence telemetry aggregated per
 * logical context (cell, arc, design point) plus the bookkeeping for
 * failure-forensics dumps.
 *
 * The numeric core is instrumented with lightweight probes that are
 * inert until the collector is enabled (one relaxed atomic load per
 * solve, one branch per Newton iteration), so production runs pay
 * nothing. When `--diag-json`/`--diag-dir` turn the collector on:
 *
 *  - callers label their work with a labelled trace::Scope
 *    ("liberty.inv.pin0", "explorer.point.fe2.alu2.s9"); the label is
 *    thread-local, so every worker of the parallel pool aggregates
 *    under its own task;
 *  - circuit::Mna::solveNewton opens a SolveProbe per solve and feeds
 *    it per-iteration residual/update norms (ring-buffered) and
 *    chord-vs-full decisions;
 *  - the DC and transient engines record recovery events (source
 *    stepping, gmin stepping, step accept/reject, Newton retries);
 *  - on failure the Newton kernel writes a content-addressed dump via
 *    circuit/dump and registers the path here.
 *
 * dumpJson() exports the whole picture as one schema-versioned
 * document ("otft-diag-1") that `--diag-json` writes at session exit.
 *
 * Concurrency: the collector takes one mutex per aggregate update;
 * probes buffer per-solve data privately and publish once on close.
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

namespace otft::diag {

/** Schema tag of the --diag-json document. */
inline constexpr const char *diagSchema = "otft-diag-1";

/** One recorded Newton iteration. */
struct IterationSample
{
    /** 0-based iteration index within the solve. */
    int iteration = 0;
    /** Inf-norm of the residual F(x) at the iterate. */
    double residualNorm = 0.0;
    /** Inf-norm of the clamped voltage update applied. */
    double maxUpdate = 0.0;
    /** True when the iteration reused a frozen (chord) Jacobian. */
    bool chord = false;
};

/** What kind of solve a probe covers. */
enum class SolveKind { Dc, TransientStep };

/** @return "dc" or "transient_step". */
const char *toString(SolveKind kind);

/** Discrete solver events aggregated per context. */
enum class Event {
    /** Adaptive (or fixed) transient step accepted. */
    StepAccept,
    /** Adaptive step rejected for excess LTE. */
    StepReject,
    /** A transient step retried after a Newton failure. */
    NewtonRetry,
    /** DC operating point fell back to source-stepping homotopy. */
    SourceStepping,
    /** DC operating point fell back to gmin stepping. */
    GminStepping,
};

/** Aggregated telemetry for one context label. */
struct ContextStats
{
    std::uint64_t solves = 0;
    std::uint64_t failures = 0;
    std::uint64_t iterations = 0;
    std::uint64_t chordIterations = 0;
    std::uint64_t jacobianRefreshes = 0;
    std::uint64_t singularRecoveries = 0;
    std::uint64_t stepAccepts = 0;
    std::uint64_t stepRejects = 0;
    std::uint64_t newtonRetries = 0;
    std::uint64_t sourceStepping = 0;
    std::uint64_t gminStepping = 0;
    /** Worst iteration count over converged solves. */
    int maxIterations = 0;
    /** Worst final residual norm over failed solves. */
    double worstFinalResidual = 0.0;
};

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

    /** Attach a run attribute (e.g. an RNG seed) to dumps and JSON. */
    void setAttribute(const std::string &key, double value);
    std::map<std::string, double> attributes() const;

    /** Publish one closed solve into the context aggregate. */
    void recordSolve(const std::string &context, SolveKind kind,
                     bool converged, int iterations,
                     int chord_iterations, int jacobian_refreshes,
                     int singular_recoveries, double final_residual);

    /** Count a discrete solver event under the context. */
    void recordEvent(const std::string &context, Event event);

    /**
     * Register a failure dump path. @return false when the per-process
     * cap has been reached (the caller should skip writing the file).
     */
    bool recordDump(const std::string &path);

    std::vector<std::string> dumpPaths() const;

    /** Aggregate for one context ("" aggregates unlabeled solves). */
    ContextStats contextStats(const std::string &context) const;
    std::size_t contextCount() const;

    /** Write the otft-diag-1 JSON document. */
    void dumpJson(std::ostream &os) const;

    /** Drop every aggregate, dump path, and attribute. */
    void reset();

  private:
    Collector() = default;

    std::atomic<bool> enabled_{false};
    std::atomic<bool> dumps_{false};
    mutable std::mutex mutex_;
    std::string dumpDir_;
    std::size_t maxDumps_ = 32;
    std::size_t dumpsSkipped_ = 0;
    std::map<std::string, double> attributes_;
    std::map<std::string, ContextStats> contexts_;
    std::vector<std::string> dumpPaths_;
};

/** @return true when the process-wide collector is enabled. */
inline bool
enabled()
{
    return Collector::instance().enabled();
}

/** Record an event under the calling thread's current context. */
void recordEvent(Event event);

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

/**
 * Per-solve probe used by the Newton kernel. Buffers the last
 * `ringCapacity` iteration samples privately and publishes the
 * aggregate to the collector when closed. Inert (no clock reads, no
 * allocation) when the collector is disabled at construction.
 */
class SolveProbe
{
  public:
    /** Iterations of history kept for failure dumps. */
    static constexpr std::size_t ringCapacity = 64;

    explicit SolveProbe(SolveKind kind);
    ~SolveProbe();

    SolveProbe(const SolveProbe &) = delete;
    SolveProbe &operator=(const SolveProbe &) = delete;

    bool active() const { return active_; }
    /** True when a failure here should also write a forensics dump. */
    bool wantsDump() const { return active_ && dumps_; }

    void iteration(int iter, double residual_norm, double max_update,
                   bool chord);
    void jacobianRefresh() { ++refreshes_; }
    void singularRecovery() { ++recoveries_; }

    /** Close the probe (idempotent; the destructor closes as failed). */
    void finish(bool converged);

    /** Ring contents in chronological order. */
    std::vector<IterationSample> trace() const;

  private:
    SolveKind kind_;
    bool active_ = false;
    bool dumps_ = false;
    bool closed_ = false;
    int iterations_ = 0;
    int chordIterations_ = 0;
    int refreshes_ = 0;
    int recoveries_ = 0;
    double finalResidual_ = 0.0;
    std::string context_;
    std::vector<IterationSample> ring_;
    std::size_t ringNext_ = 0;
};

} // namespace otft::diag

#endif // OTFT_UTIL_DIAG_HPP
