/**
 * @file
 * Shared driver shell for the bench and example binaries: strips the
 * run-option flags from argv and on exit emits the stats report, the
 * trace timeline, and (for benches) a one-line machine-readable JSON
 * footer.
 *
 * Flags handled:
 *   --stats-json <path>   write the stats registry as JSON on exit
 *   --stats               print the stats text table to stderr on exit
 *   --trace-json <path>   collect a Chrome trace_event timeline
 *   --jobs <n>            worker threads for the parallel layers
 *   --cache-dir <dir>     persist the result cache as JSON under dir
 *   --diag-json <path>    write solver convergence telemetry on exit
 *   --diag-dir <dir>      write failure forensics dumps under dir
 *   --profile-folded <path>  run the sampling profiler and write the
 *                            collapsed-stack (flamegraph) file on exit
 *   --profile-period-us <n>  sampling period for --profile-folded
 *                            (default 1000)
 *   --profile-topn <n>       rows in the top-frames report and the
 *                            footer profile section (default 5)
 *   --mc-samples <n>      Monte Carlo process samples (default 16)
 *   --mc-seed <n>         Monte Carlo master seed (default 1)
 *   --mc-yield <y>        target parametric yield in (0, 1)
 *                         (default 0.99)
 *
 * Each option above has one input channel, its flag, so a run is
 * reproducible from its command line. The program reads exactly four
 * environment variables:
 *   OTFT_STATS_JSON=path  --stats-json when the flag is absent
 *   OTFT_TRACE_JSON=path  --trace-json when the flag is absent
 *   OTFT_CACHE=0          disable the result cache (ResultCache); the
 *                         in-process Memo tables stay on
 *   OTFT_LOG_LEVEL=level  silent|warn|info (or 0/1/2) gates inform()
 *                         and warn() (read in util/logging.cpp)
 * The first two let a parent process trace the runs it launches. The
 * last two are the exceptions to one-flag-per-option: they have no
 * flag, and neither changes a figure's numbers.
 *
 * --jobs must be a positive integer; 0, negative, or non-numeric
 * values are fatal. Values above the hardware concurrency are clamped
 * to it (with a warning). The resolved count is installed as the
 * process-wide parallel::jobs() default; without the flag the default
 * is the hardware concurrency.
 *
 * Output paths are validated up front: an unwritable
 * --stats-json/--trace-json target is a fatal() at construction (clear
 * message, nonzero exit), not a silent warning after the run has
 * burned its compute.
 */

#ifndef OTFT_UTIL_CLI_HPP
#define OTFT_UTIL_CLI_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace otft::cli {

/** Footer behavior for Session. */
enum class Footer { Off, On };

/**
 * RAII driver session. Construct first thing in main() (it consumes
 * the observability flags so the driver's own argument handling never
 * sees them); destruction emits the requested reports. With
 * Footer::On the last stdout line is the canonical bench footer
 * `{"bench": "<name>", "schema": "otft-bench-footer-1",
 * "wall_s": <t>, "points": <n>, ...extras}` — one schema across every
 * fig/ext bench, which is what lets `perf_suite --ingest` fold figure
 * benches into the BENCH_*.json trajectory.
 */
class Session
{
  public:
    Session(std::string name, int &argc, char **argv,
            Footer footer = Footer::Off);
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /** Record the number of sweep/result points for the footer. */
    void setPoints(std::int64_t n) { points = n; }

    /**
     * Append a numeric field to the footer (after the canonical
     * fields), so a bench can put a headline metric on the trajectory.
     */
    void addFooterField(const std::string &key, double value);

    /**
     * Append a pre-rendered JSON value to the footer under `key`
     * (e.g. the otft-prof-2 profile section). The caller guarantees
     * `raw_json` is valid JSON.
     */
    void addFooterJson(const std::string &key, std::string raw_json);

    /** Parsed observability settings (exposed for tests). */
    bool statsTextEnabled() const { return statsText; }
    const std::string &statsJson() const { return statsJsonPath; }
    const std::string &traceJson() const { return traceJsonPath; }

    /** The worker count installed into parallel::setJobs(). */
    int jobs() const { return jobs_; }

    /** The result-cache persistence directory ("" = memory only). */
    const std::string &cacheDirectory() const { return cacheDir; }

    /** Diagnostics settings (exposed for tests). */
    const std::string &diagJson() const { return diagJsonPath; }
    const std::string &diagDirectory() const { return diagDir; }

    /** Profiler settings (exposed for tests). */
    const std::string &profileFolded() const { return profilePath; }
    std::uint64_t profilePeriodUs() const { return profilePeriod; }
    int profileTopN() const { return profileTop; }

    /**
     * Monte Carlo settings for benches that characterize or sign off
     * under process variation (--mc-samples / --mc-seed / --mc-yield).
     */
    int mcSamples() const { return mcSamples_; }
    std::uint64_t mcSeed() const { return mcSeed_; }
    double mcYield() const { return mcYield_; }

  private:
    std::string name;
    bool footer;
    bool statsText = false;
    int jobs_ = 0;
    std::string statsJsonPath;
    std::string traceJsonPath;
    std::string cacheDir;
    std::string diagJsonPath;
    std::string diagDir;
    std::string profilePath;
    std::uint64_t profilePeriod = 1000;
    int profileTop = 5;
    int mcSamples_ = 16;
    std::uint64_t mcSeed_ = 1;
    double mcYield_ = 0.99;
    bool profiling = false;
    std::vector<std::pair<std::string, double>> footerExtras;
    std::vector<std::pair<std::string, std::string>> footerRawExtras;
    std::int64_t points = 0;
    std::int64_t startNs;
};

} // namespace otft::cli

#endif // OTFT_UTIL_CLI_HPP
