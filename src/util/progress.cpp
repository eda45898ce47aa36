#include "util/progress.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/logging.hpp"
#include "util/stats_registry.hpp"

namespace otft::progress {

namespace {

/** Minimum seconds between TTY redraws. */
constexpr double redrawPeriodS = 0.2;

/** Watchdog threshold as a multiple of the median task duration. */
constexpr double slowTaskMultiple = 8.0;

/** Durations needed before the watchdog starts judging. */
constexpr std::size_t slowTaskMinSamples = 8;

/**
 * Time constant (seconds) of the EWMA that smooths the displayed
 * items/sec rate: bursty sweeps (a parallel pool retiring several
 * items at once) otherwise make the ETA jitter. The final summary
 * line always shows the raw whole-run rate.
 */
constexpr double rateTimeConstantS = 5.0;

/** Keep at most this many durations for the median estimate. */
constexpr std::size_t maxDurations = 4096;

/** Minimum window folded into the rate EWMA (jitter floor). */
constexpr double minRateWindowS = 0.05;

/**
 * The watchdog never flags a task shorter than this, however far past
 * the median: among sub-second tasks (cache hits, tiny grid points) a
 * large multiple is scheduler noise, not a pathological task.
 */
constexpr double watchdogFloorS = 0.5;

enum class Policy { Off, ForcedOn, TtyOnly };

Policy
policy()
{
    static const Policy p = [] {
        const char *env = std::getenv("OTFT_PROGRESS");
        if (env && std::string(env) == "0")
            return Policy::Off;
        if (env && std::string(env) == "1")
            return Policy::ForcedOn;
        return Policy::TtyOnly;
    }();
    return p;
}

bool
stderrIsTty()
{
    static const bool tty = isatty(fileno(stderr)) != 0;
    return tty;
}

std::string
formatEta(double seconds)
{
    if (seconds < 0.0)
        return "--";
    std::ostringstream oss;
    const auto s = static_cast<long>(seconds + 0.5);
    if (s >= 3600)
        oss << s / 3600 << "h" << (s % 3600) / 60 << "m";
    else if (s >= 60)
        oss << s / 60 << "m" << s % 60 << "s";
    else
        oss << s << "s";
    return oss.str();
}

} // namespace

bool
enabled()
{
    switch (policy()) {
      case Policy::Off:
        return false;
      case Policy::ForcedOn:
        return true;
      case Policy::TtyOnly:
        return stderrIsTty();
    }
    return false;
}

Reporter::Reporter(std::string label, std::size_t total)
    : label_(std::move(label)), total_(total),
      startNs_(stats::monotonicNowNs()), renders_(enabled()),
      tty_(stderrIsTty()), lastRateNs_(startNs_)
{
}

Reporter::~Reporter()
{
    done();
}

void
Reporter::itemDone(double duration_s)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++completed_;
    ++pendingItems_;
    updateRateLocked();

    if (duration_s > 0.0) {
        if (durations_.size() >= slowTaskMinSamples) {
            const double median = medianLocked();
            if (median > 0.0 && duration_s > watchdogFloorS &&
                duration_s > slowTaskMultiple * median) {
                ++watchdogFlags_;
                static stats::Counter &stat_flags = stats::counter(
                    "progress.watchdog_flags",
                    "tasks slower than both the watchdog multiple of "
                    "the median task time and the absolute floor");
                ++stat_flags;
                warn(label_, ": slow task: ", duration_s,
                     " s vs median ", median, " s (item ", completed_,
                     total_ ? "/" : "",
                     total_ ? std::to_string(total_) : std::string(),
                     ")");
            }
        }
        if (durations_.size() < maxDurations)
            durations_.push_back(duration_s);
    }

    if (renders_)
        maybeRenderLocked();
}

void
Reporter::done()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (finished_)
        return;
    finished_ = true;
    if (!renders_ || completed_ == 0)
        return;
    if (tty_)
        std::fprintf(stderr, "\r%s\n", lineLocked().c_str());
    else
        std::fprintf(stderr, "%s\n", lineLocked().c_str());
}

std::size_t
Reporter::completed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return completed_;
}

std::uint64_t
Reporter::watchdogFlags() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return watchdogFlags_;
}

std::string
Reporter::line() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return lineLocked();
}

/**
 * Fold the items finished since the last window into the EWMA with a
 * time-based weight, alpha = 1 - exp(-dt / tau): irregular arrival
 * gaps get proportionally more weight, so the smoothed rate is
 * independent of how bursty the ticks are. Windows shorter than
 * minRateWindowS accumulate (a pool retiring a whole chunk at once
 * must count as one burst, not N infinite instantaneous rates).
 */
void
Reporter::updateRateLocked()
{
    const std::int64_t now = stats::monotonicNowNs();
    const double dt = static_cast<double>(now - lastRateNs_) * 1e-9;
    if (dt < minRateWindowS)
        return;
    const double inst = static_cast<double>(pendingItems_) / dt;
    if (!ewmaInit_) {
        ewmaRate_ = inst;
        ewmaInit_ = true;
    } else {
        const double alpha = 1.0 - std::exp(-dt / rateTimeConstantS);
        ewmaRate_ += alpha * (inst - ewmaRate_);
    }
    pendingItems_ = 0;
    lastRateNs_ = now;
}

double
Reporter::smoothedRate() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return ewmaInit_ ? ewmaRate_ : 0.0;
}

std::string
Reporter::lineLocked() const
{
    const double elapsed =
        static_cast<double>(stats::monotonicNowNs() - startNs_) * 1e-9;
    // In-flight lines show the EWMA-smoothed rate (steadier ETA); the
    // final summary keeps the honest whole-run average.
    const double raw =
        elapsed > 0.0 ? static_cast<double>(completed_) / elapsed : 0.0;
    const double rate = !finished_ && ewmaInit_ ? ewmaRate_ : raw;

    std::ostringstream oss;
    oss << label_ << ": " << completed_;
    if (total_) {
        oss << "/" << total_;
        const double pct = 100.0 * static_cast<double>(completed_) /
                           static_cast<double>(total_);
        oss << " (" << static_cast<int>(pct) << "%)";
    }
    oss.precision(3);
    oss << " " << rate << "/s";
    if (total_ && rate > 0.0 && completed_ < total_) {
        const double remaining =
            static_cast<double>(total_ - completed_) / rate;
        oss << " eta " << formatEta(remaining);
    }
    return oss.str();
}

double
Reporter::medianLocked() const
{
    if (durations_.empty())
        return 0.0;
    std::vector<double> copy = durations_;
    const std::size_t mid = copy.size() / 2;
    std::nth_element(copy.begin(), copy.begin() + mid, copy.end());
    return copy[mid];
}

void
Reporter::maybeRenderLocked()
{
    if (tty_) {
        const std::int64_t now = stats::monotonicNowNs();
        const auto min_ns =
            static_cast<std::int64_t>(redrawPeriodS * 1e9);
        if (now - lastRenderNs_ < min_ns)
            return;
        lastRenderNs_ = now;
        std::fprintf(stderr, "\r%s\033[K", lineLocked().c_str());
        std::fflush(stderr);
        return;
    }
    // Non-TTY (forced on): one full line per completed decile, so a
    // captured log shows coarse progress without redraw control codes.
    if (!total_)
        return;
    const std::size_t decile = completed_ * 10 / total_;
    if (decile > lastDecile_ && completed_ < total_) {
        lastDecile_ = decile;
        std::fprintf(stderr, "%s\n", lineLocked().c_str());
    }
}

} // namespace otft::progress
