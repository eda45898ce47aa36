/**
 * @file
 * Progress reporting for long parallel sweeps: items-done/total, rate,
 * and ETA on stderr, plus a watchdog that flags tasks whose duration
 * exceeds a configurable multiple of the running median.
 *
 * Reporters are owned by the sweep driver (liberty characterization,
 * explorer width sweep) and ticked from worker threads via
 * `itemDone(seconds)`; rendering is throttled and happens on whichever
 * thread crosses the redraw interval.
 *
 * Output policy, resolved once per process:
 *  - `OTFT_PROGRESS=0` disables rendering entirely;
 *  - `OTFT_PROGRESS=1` forces it on (useful under pipes in tests);
 *  - otherwise progress renders only when stderr is a TTY, with `\r`
 *    in-place redraws. Non-TTY forced output emits one full line per
 *    decile instead so logs stay greppable.
 *
 * The watchdog needs no configuration in the common case: once
 * `watchdogMinSamples` durations are in, any task slower than both
 * `watchdogMultiple` x median and a fixed half-second floor is warned
 * about and counted in the `progress.watchdog_flags` stat.
 * `OTFT_WATCHDOG_MULT` overrides the multiple process-wide.
 */

#ifndef OTFT_UTIL_PROGRESS_HPP
#define OTFT_UTIL_PROGRESS_HPP

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace otft::progress {

/** @return true when progress rendering is on for this process. */
bool enabled();

/** Reporter knobs; the defaults suit multi-second sweeps. */
struct Options
{
    /** Prefix shown on every line ("liberty", "explorer.sweep"). */
    std::string label = "progress";
    /** Total item count (0 renders counts without percent/ETA). */
    std::size_t total = 0;
    /** Minimum seconds between TTY redraws. */
    double minRedrawIntervalS = 0.2;
    /**
     * Watchdog threshold as a multiple of the median task duration
     * (<= 0 disables). Overridden by OTFT_WATCHDOG_MULT when set.
     */
    double watchdogMultiple = 8.0;
    /** Durations needed before the watchdog starts judging. */
    std::size_t watchdogMinSamples = 8;
    /**
     * Time constant (seconds) of the EWMA that smooths the displayed
     * items/sec rate — bursty sweeps (a parallel pool retiring a
     * chunk at once) otherwise make the ETA jitter. <= 0 disables
     * smoothing. The final summary line always shows the raw
     * whole-run rate.
     */
    double rateTauS = 5.0;
};

/**
 * One sweep's progress state. Thread-safe: workers call
 * itemDone() concurrently; the owner calls done() after joining.
 */
class Reporter
{
  public:
    explicit Reporter(Options options);
    ~Reporter();

    Reporter(const Reporter &) = delete;
    Reporter &operator=(const Reporter &) = delete;

    /**
     * Record one finished item and its wall-clock duration (seconds;
     * pass 0 when unknown — the watchdog skips zero durations).
     */
    void itemDone(double duration_s);

    /** Finish the sweep: render the final state and a newline. */
    void done();

    /** Items recorded so far. */
    std::size_t completed() const;

    /** Tasks the watchdog flagged as outliers. */
    std::uint64_t watchdogFlags() const;

    /** The status line as it would render now (exposed for tests). */
    std::string line() const;

    /**
     * The EWMA-smoothed items/sec rate (0 until the first update
     * window closes; exposed for tests).
     */
    double smoothedRate() const;

  private:
    std::string lineLocked() const;
    double medianLocked() const;
    void maybeRenderLocked();
    void updateRateLocked();

    Options options_;
    mutable std::mutex mutex_;
    std::size_t completed_ = 0;
    std::uint64_t watchdogFlags_ = 0;
    std::int64_t startNs_;
    std::int64_t lastRenderNs_ = 0;
    std::size_t lastDecile_ = 0;
    bool renders_;
    bool tty_;
    bool finished_ = false;
    /** EWMA rate state (see updateRateLocked). */
    double ewmaRate_ = 0.0;
    bool ewmaInit_ = false;
    std::int64_t lastRateNs_ = 0;
    std::size_t pendingItems_ = 0;
    /** Completed-task durations for the median (capped; see cpp). */
    std::vector<double> durations_;
};

} // namespace otft::progress

#endif // OTFT_UTIL_PROGRESS_HPP
