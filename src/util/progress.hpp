/**
 * @file
 * Progress reporting for long parallel sweeps: items-done/total, rate,
 * and ETA on stderr, plus a watchdog that flags tasks whose duration
 * exceeds a fixed multiple of the running median.
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
 * The watchdog takes no configuration: once 8 durations are in, any
 * task slower than both 8x the median and a half-second floor is
 * warned about and counted in the `progress.watchdog_flags` stat.
 * The displayed rate is an EWMA with a 5 s time constant; TTY
 * redraws are at most every 0.2 s (constants in progress.cpp).
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

/**
 * One sweep's progress state. Thread-safe: workers call
 * itemDone() concurrently; the owner calls done() after joining.
 */
class Reporter
{
  public:
    /**
     * @param label prefix shown on every line ("liberty",
     *        "explorer.sweep")
     * @param total item count (0 renders counts without percent/ETA)
     */
    Reporter(std::string label, std::size_t total);
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

    std::string label_;
    std::size_t total_;
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
