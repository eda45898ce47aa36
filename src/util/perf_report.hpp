/**
 * @file
 * Perf flight recorder: scenario suite runner, canonical BENCH_*.json
 * reports, and the paired comparison of two builds.
 *
 * The pieces fit together as a longitudinal performance record:
 *
 *  - a ScenarioSuite runs registered scenarios (one per layer of the
 *    paper flow) with configurable warmup and repetitions, measuring
 *    per-rep wall time and the per-scenario *stats-registry counter
 *    deltas* — Newton iterations, LU factorizations, arc evaluations,
 *    cache hits — so algorithmic regressions show even when wall-time
 *    noise hides them;
 *  - writeReport()/readReport() serialize a schema-versioned report
 *    ("otft-bench-1") with an environment fingerprint (git SHA,
 *    compiler, build type, CPU count) for apples-to-apples trend
 *    lines; appendReport() adds a round to a report of the same build;
 *  - diffReports() compares two reports round by round (the paired
 *    rule), counters by a tight relative threshold.
 *
 * The `perf_suite` bench binary provides the scenarios and CLI; the
 * `perf_diff` binary wraps diffReports() with table output and a
 * nonzero exit on regression; scripts/bench.sh drives both.
 */

#ifndef OTFT_UTIL_PERF_REPORT_HPP
#define OTFT_UTIL_PERF_REPORT_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace otft::perf {

/** The schema tag written into (and required of) report files. */
inline constexpr const char *reportSchema = "otft-bench-1";

/** The schema tag of the one-line bench footers (see cli::Session). */
inline constexpr const char *footerSchema = "otft-bench-footer-1";

// ---------------------------------------------------------------------
// Robust timing statistics.
// ---------------------------------------------------------------------

/** Robust summary of one scenario's wall-time samples, seconds. */
struct TimingSummary
{
    std::uint64_t reps = 0;
    double minS = 0.0;
    double medianS = 0.0;
    /** Median absolute deviation from the median (noise scale). */
    double madS = 0.0;
    double p95S = 0.0;
    double meanS = 0.0;
    double totalS = 0.0;
};

/**
 * Rank-based percentile of an ascending-sorted sample vector with
 * linear interpolation between order statistics (rank p/100 * (n-1)).
 * Empty input reports 0.
 */
double percentileSorted(const std::vector<double> &sorted, double p);

/** Summarize samples (any order); does not modify the argument. */
TimingSummary summarizeTimes(const std::vector<double> &samples);

// ---------------------------------------------------------------------
// Environment fingerprint.
// ---------------------------------------------------------------------

/** Where a report was recorded, for apples-to-apples comparisons. */
struct EnvFingerprint
{
    std::string gitSha;
    std::string compiler;
    std::string buildType;
    std::string os;
    /** Machine name (uname nodename); "unknown" in old reports. */
    std::string host;
    int cpuCount = 0;
    /** parallel::jobs() at record time; 0 in old reports. */
    int jobs = 0;
    std::string timestampUtc;
};

/** Fingerprint of this build/process. */
EnvFingerprint currentEnvironment();

// ---------------------------------------------------------------------
// Scenarios and the suite runner.
// ---------------------------------------------------------------------

/** One registered benchmark scenario. */
struct Scenario
{
    /** Dotted name, `layer.what` ("circuit.dc_operating_point"). */
    std::string name;
    /** The flow layer it exercises ("circuit", "sta", ...). */
    std::string layer;
    std::string description;
    /** Untimed one-time preparation (builds fixtures/caches). */
    std::function<void()> setup;
    /** One timed repetition; returns a points count for the report. */
    std::function<std::uint64_t()> run;
};

/** Result of running one scenario (or one ingested footer). */
struct ScenarioResult
{
    std::string name;
    std::string layer;
    std::string description;
    std::uint64_t points = 0;
    TimingSummary timing;
    /**
     * Per-rep wall times, seconds, in run order; appended rounds
     * follow in round order, so sample i of two reports recorded
     * round by round is one pair.
     */
    std::vector<double> samplesS;
    /**
     * Per-rep stats-registry counter deltas (total across measured
     * reps divided by rep count). Only counters that moved appear.
     */
    std::map<std::string, double> counters;
};

/** Suite run controls. */
struct SuiteOptions
{
    std::uint64_t reps = 5;
    std::uint64_t warmup = 1;
    /** Substring filter on scenario names; empty runs everything. */
    std::string filter;
    /**
     * Run the sampling profiler across each scenario's timed reps
     * (setup and warmup stay unsampled) and write one collapsed-stack
     * artifact per scenario: `PROF_<name>.folded` (dots in the name
     * become underscores) under profileDir (default: cwd).
     */
    bool profile = false;
    std::string profileDir;
    std::uint64_t profilePeriodUs = 1000;
    /** Rows in the per-scenario top-frames report on stderr. */
    int profileTopN = 5;
};

/** An ordered collection of runnable scenarios. */
class ScenarioSuite
{
  public:
    /** Register a scenario; fatal on a duplicate name. */
    void add(Scenario scenario);

    const std::vector<Scenario> &scenarios() const { return items; }

    /**
     * Run every scenario matching the filter: setup (untimed), warmup
     * reps, stats-registry reset, then `reps` timed reps with the
     * counter delta captured across them. Progress goes through
     * inform(), so OTFT_LOG_LEVEL/setQuiet() control it.
     */
    std::vector<ScenarioResult> run(const SuiteOptions &options) const;

  private:
    std::vector<Scenario> items;
};

// ---------------------------------------------------------------------
// The canonical report document.
// ---------------------------------------------------------------------

/** One BENCH_*.json document. */
struct BenchReport
{
    std::string suite = "perf_suite";
    std::uint64_t reps = 0;
    std::uint64_t warmup = 0;
    EnvFingerprint env;
    std::vector<ScenarioResult> scenarios;
};

/** Serialize as schema-versioned JSON (stable field order). */
void writeReport(const BenchReport &report, std::ostream &os);

/**
 * Parse a report document; fatal on malformed input or a schema tag
 * other than reportSchema.
 */
BenchReport readReport(std::istream &is);

/**
 * Write `run` to `path`, or append it to the report already there as
 * one more round: samples follow those of the same scenario, counters
 * become per-rep means over all rounds. Fatal, leaving the file as it
 * is, when it does not parse or holds another build's report (SHA).
 */
void appendReport(const std::string &path, const BenchReport &run);

/**
 * Parse newline-delimited bench footers (the last stdout line of
 * every fig / ext bench) into scenario results under layer "bench",
 * one sample per footer; footers that share a bench name merge into
 * one result in line order. Numeric footer fields beyond
 * wall_s/points are kept as counter-style metrics so they join the
 * trajectory. Lines that are not footer objects are skipped.
 */
std::vector<ScenarioResult> ingestFooters(std::istream &is);

// ---------------------------------------------------------------------
// Paired diffing.
// ---------------------------------------------------------------------

/** Verdict for one compared metric (see diffReports()). */
enum class DiffStatus {
    Unchanged, Improved, Regressed, Unpaired, Added, Removed
};

/** @return printable status ("ok", "REGRESSED", ...). */
const char *toString(DiffStatus status);

/** One compared metric of one scenario. */
struct DiffEntry
{
    std::string scenario;
    /** "wall_s" or a counter name. */
    std::string metric;
    double baseline = 0.0;
    double current = 0.0;
    /** Relative change (current - baseline) / baseline. */
    double delta = 0.0;
    /** Wall time: the baseline's interquartile range, seconds. */
    double baselineIqr = 0.0;
    /** Wall time: pairs the current report won, lost, and in all. */
    std::size_t wins = 0, losses = 0, pairs = 0;
    DiffStatus status = DiffStatus::Unchanged;
};

/** Full comparison of two reports. */
struct DiffReport
{
    /**
     * One wall_s entry per scenario (matched, added, or removed) plus
     * one entry per counter that moved past its threshold.
     */
    std::vector<DiffEntry> entries;
    int regressions = 0;
    int improvements = 0;
    /**
     * Environment fingerprint mismatches between the two reports
     * (host, git SHA, job count, ...): the comparison still runs, but
     * renderDiff() surfaces these so an apples-to-oranges diff is
     * never silent. Fields that are "unknown"/0 on either side (old
     * reports predating the field) are not flagged.
     */
    std::vector<std::string> envWarnings;
};

/**
 * Compare `current` against `baseline`. Wall times are compared pair
 * by pair (samplesS[i] of each side; ties count for neither): a
 * scenario regressed when `current` loses at least 90 % of the pairs
 * and its median is higher by more than the baseline's interquartile
 * range, and improved in the mirror case; sample counts that differ or
 * are under ten are Unpaired. A per-rep counter is flagged when it
 * moves by more than max(2 %, 1).
 */
DiffReport diffReports(const BenchReport &baseline,
                       const BenchReport &current);

/** Render the regression/improvement table. */
void renderDiff(const DiffReport &diff, std::ostream &os);

} // namespace otft::perf

#endif // OTFT_UTIL_PERF_REPORT_HPP
