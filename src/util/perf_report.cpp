#include "util/perf_report.hpp"

#include <algorithm>
#include <cmath>
#include <ctime>
#include <fstream>
#include <iostream>
#include <ostream>
#include <sstream>
#include <thread>

#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "util/profiler.hpp"
#include "util/stats_registry.hpp"
#include "util/table.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/utsname.h>
#endif

namespace otft::perf {

// ---------------------------------------------------------------------
// Timing statistics.
// ---------------------------------------------------------------------

double
percentileSorted(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const double clamped = p < 0.0 ? 0.0 : (p > 100.0 ? 100.0 : p);
    const double rank =
        clamped / 100.0 * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

TimingSummary
summarizeTimes(const std::vector<double> &samples)
{
    TimingSummary s;
    s.reps = samples.size();
    if (samples.empty())
        return s;
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    s.minS = sorted.front();
    s.medianS = percentileSorted(sorted, 50.0);
    s.p95S = percentileSorted(sorted, 95.0);
    for (double v : sorted)
        s.totalS += v;
    s.meanS = s.totalS / static_cast<double>(sorted.size());
    std::vector<double> dev;
    dev.reserve(sorted.size());
    for (double v : sorted)
        dev.push_back(std::abs(v - s.medianS));
    std::sort(dev.begin(), dev.end());
    s.madS = percentileSorted(dev, 50.0);
    return s;
}

// ---------------------------------------------------------------------
// Environment fingerprint.
// ---------------------------------------------------------------------

EnvFingerprint
currentEnvironment()
{
    EnvFingerprint env;
#ifdef OTFT_GIT_SHA
    env.gitSha = OTFT_GIT_SHA;
#else
    env.gitSha = "unknown";
#endif
#ifdef __VERSION__
    env.compiler = __VERSION__;
#else
    env.compiler = "unknown";
#endif
#ifdef OTFT_BUILD_TYPE
    env.buildType = OTFT_BUILD_TYPE;
#else
    env.buildType = "unknown";
#endif
#if defined(__unix__) || defined(__APPLE__)
    struct utsname uts;
    if (uname(&uts) == 0) {
        env.os = std::string(uts.sysname) + " " + uts.release;
        env.host = uts.nodename;
    }
#endif
    if (env.os.empty())
        env.os = "unknown";
    if (env.host.empty())
        env.host = "unknown";
    env.cpuCount =
        static_cast<int>(std::thread::hardware_concurrency());
    env.jobs = parallel::jobs();
    std::time_t now = std::time(nullptr);
    std::tm tm_utc{};
#if defined(__unix__) || defined(__APPLE__)
    gmtime_r(&now, &tm_utc);
#else
    tm_utc = *std::gmtime(&now);
#endif
    char buf[32];
    std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
    env.timestampUtc = buf;
    return env;
}

// ---------------------------------------------------------------------
// Suite runner.
// ---------------------------------------------------------------------

void
ScenarioSuite::add(Scenario scenario)
{
    if (scenario.name.empty() || !scenario.run)
        fatal("perf: scenario needs a name and a run function");
    for (const Scenario &existing : items)
        if (existing.name == scenario.name)
            fatal("perf: duplicate scenario '", scenario.name, "'");
    items.push_back(std::move(scenario));
}

namespace {

/** "liberty.nldm_characterize" -> "PROF_liberty_nldm_characterize". */
std::string
profileArtifactPath(const SuiteOptions &options,
                    const std::string &scenario_name)
{
    std::string stem = scenario_name;
    std::replace(stem.begin(), stem.end(), '.', '_');
    std::string path = "PROF_" + stem + ".folded";
    if (!options.profileDir.empty())
        path = options.profileDir + "/" + path;
    return path;
}

} // namespace

std::vector<ScenarioResult>
ScenarioSuite::run(const SuiteOptions &options) const
{
    if (options.reps == 0)
        fatal("perf: need at least one repetition");
    stats::Registry &registry = stats::Registry::instance();
    std::vector<ScenarioResult> results;
    for (const Scenario &scenario : items) {
        if (!options.filter.empty() &&
            scenario.name.find(options.filter) == std::string::npos)
            continue;
        inform("perf: running ", scenario.name, " (", options.reps,
               " reps)");
        ScenarioResult result;
        result.name = scenario.name;
        result.layer = scenario.layer;
        result.description = scenario.description;
        if (scenario.setup)
            scenario.setup();
        for (std::uint64_t i = 0; i < options.warmup; ++i)
            (void)scenario.run();
        registry.reset();
        const auto before = registry.counterSnapshot();
        // Profile only the timed reps: setup and warmup would
        // otherwise dominate short scenarios with one-time work.
        const bool profiling =
            options.profile &&
            prof::Profiler::instance().start(options.profilePeriodUs);
        for (std::uint64_t i = 0; i < options.reps; ++i) {
            const std::int64_t t0 = stats::monotonicNowNs();
            result.points = scenario.run();
            const std::int64_t t1 = stats::monotonicNowNs();
            result.samplesS.push_back(
                static_cast<double>(t1 - t0) * 1e-9);
        }
        // Snapshot the counters before the profiler stops: the
        // profiler publishes its own (run-to-run noisy) sample
        // counters at stop, and those must not join the scenario's
        // deterministic counter deltas.
        const auto after = registry.counterSnapshot();
        if (profiling) {
            prof::Profiler &profiler = prof::Profiler::instance();
            profiler.stop();
            const std::string path =
                profileArtifactPath(options, scenario.name);
            std::ofstream os(path);
            if (!os) {
                warn("perf: cannot write profile to ", path);
            } else {
                profiler.writeFolded(os);
                inform("perf: profile for ", scenario.name, ": ",
                       profiler.folded().size(), " stacks (",
                       profiler.sampleCount(), " samples) -> ",
                       path);
            }
            std::cerr << "\n== profile: " << scenario.name
                      << " ==\n";
            profiler.writeTopReport(std::cerr, options.profileTopN);
        }
        for (const auto &[name, value] : after) {
            auto it = before.find(name);
            const std::uint64_t prior =
                it != before.end() ? it->second : 0;
            if (value > prior)
                result.counters[name] =
                    static_cast<double>(value - prior) /
                    static_cast<double>(options.reps);
        }
        result.timing = summarizeTimes(result.samplesS);
        results.push_back(std::move(result));
    }
    return results;
}

// ---------------------------------------------------------------------
// Report serialization.
// ---------------------------------------------------------------------

namespace {

/** Format a double for JSON output (round-trips, never NaN/Inf). */
std::string
num(double v)
{
    if (!std::isfinite(v))
        return "0";
    std::ostringstream oss;
    oss.precision(17);
    oss << v;
    return oss.str();
}

} // namespace

void
writeReport(const BenchReport &report, std::ostream &os)
{
    os << "{\n";
    os << "  \"schema\": \"" << reportSchema << "\",\n";
    os << "  \"suite\": \"" << json::escape(report.suite) << "\",\n";
    os << "  \"reps\": " << report.reps << ",\n";
    os << "  \"warmup\": " << report.warmup << ",\n";
    os << "  \"env\": {\n";
    os << "    \"git_sha\": \"" << json::escape(report.env.gitSha)
       << "\",\n";
    os << "    \"compiler\": \"" << json::escape(report.env.compiler)
       << "\",\n";
    os << "    \"build_type\": \""
       << json::escape(report.env.buildType) << "\",\n";
    os << "    \"os\": \"" << json::escape(report.env.os) << "\",\n";
    os << "    \"host\": \"" << json::escape(report.env.host)
       << "\",\n";
    os << "    \"cpu_count\": " << report.env.cpuCount << ",\n";
    os << "    \"jobs\": " << report.env.jobs << ",\n";
    os << "    \"timestamp_utc\": \""
       << json::escape(report.env.timestampUtc) << "\"\n";
    os << "  },\n";
    os << "  \"scenarios\": [";
    bool first_scenario = true;
    for (const ScenarioResult &s : report.scenarios) {
        os << (first_scenario ? "\n" : ",\n");
        first_scenario = false;
        os << "    {\n";
        os << "      \"name\": \"" << json::escape(s.name) << "\",\n";
        os << "      \"layer\": \"" << json::escape(s.layer)
           << "\",\n";
        os << "      \"description\": \""
           << json::escape(s.description) << "\",\n";
        os << "      \"points\": " << s.points << ",\n";
        os << "      \"reps\": " << s.timing.reps << ",\n";
        os << "      \"wall_s\": {\"min\": " << num(s.timing.minS)
           << ", \"median\": " << num(s.timing.medianS)
           << ", \"mad\": " << num(s.timing.madS)
           << ", \"p95\": " << num(s.timing.p95S)
           << ", \"mean\": " << num(s.timing.meanS)
           << ", \"total\": " << num(s.timing.totalS) << "},\n";
        os << "      \"samples_s\": [";
        for (std::size_t i = 0; i < s.samplesS.size(); ++i)
            os << (i ? ", " : "") << num(s.samplesS[i]);
        os << "],\n";
        os << "      \"counters\": {";
        bool first_counter = true;
        for (const auto &[name, value] : s.counters) {
            os << (first_counter ? "" : ", ");
            first_counter = false;
            os << "\"" << json::escape(name)
               << "\": " << num(value);
        }
        os << "}\n";
        os << "    }";
    }
    os << "\n  ]\n";
    os << "}\n";
}

BenchReport
readReport(std::istream &is)
{
    const json::Value doc = json::parse(is);
    const std::string schema = doc.string("schema", "<missing>");
    if (schema != reportSchema)
        fatal("perf: unsupported report schema '", schema,
              "' (expected '", reportSchema, "')");
    BenchReport report;
    report.suite = doc.string("suite", "perf_suite");
    report.reps = static_cast<std::uint64_t>(doc.number("reps"));
    report.warmup = static_cast<std::uint64_t>(doc.number("warmup"));
    if (doc.has("env")) {
        const json::Value &env = doc.at("env");
        report.env.gitSha = env.string("git_sha", "unknown");
        report.env.compiler = env.string("compiler", "unknown");
        report.env.buildType = env.string("build_type", "unknown");
        report.env.os = env.string("os", "unknown");
        report.env.host = env.string("host", "unknown");
        report.env.cpuCount =
            static_cast<int>(env.number("cpu_count"));
        if (env.has("jobs"))
            report.env.jobs = static_cast<int>(env.number("jobs"));
        report.env.timestampUtc = env.string("timestamp_utc");
    }
    if (!doc.has("scenarios"))
        return report;
    for (const json::Value &item : doc.at("scenarios").asArray()) {
        ScenarioResult s;
        s.name = item.string("name");
        if (s.name.empty())
            fatal("perf: scenario without a name in report");
        s.layer = item.string("layer");
        s.description = item.string("description");
        s.points = static_cast<std::uint64_t>(item.number("points"));
        if (item.has("samples_s"))
            for (const json::Value &v :
                 item.at("samples_s").asArray())
                s.samplesS.push_back(v.asNumber());
        if (item.has("wall_s")) {
            const json::Value &w = item.at("wall_s");
            s.timing.reps =
                static_cast<std::uint64_t>(item.number("reps"));
            s.timing.minS = w.number("min");
            s.timing.medianS = w.number("median");
            s.timing.madS = w.number("mad");
            s.timing.p95S = w.number("p95");
            s.timing.meanS = w.number("mean");
            s.timing.totalS = w.number("total");
        } else {
            s.timing = summarizeTimes(s.samplesS);
        }
        if (item.has("counters"))
            for (const auto &[name, value] :
                 item.at("counters").asObject())
                s.counters[name] = value.asNumber();
        report.scenarios.push_back(std::move(s));
    }
    return report;
}

std::vector<ScenarioResult>
ingestFooters(std::istream &is)
{
    std::vector<ScenarioResult> results;
    std::string line;
    while (std::getline(is, line)) {
        const auto start = line.find_first_not_of(" \t\r");
        if (start == std::string::npos || line[start] != '{')
            continue;
        json::Value footer;
        try {
            footer = json::parse(line);
        } catch (const FatalError &) {
            continue; // not a footer line
        }
        if (!footer.isObject() || !footer.has("bench") ||
            !footer.has("wall_s"))
            continue;
        ScenarioResult s;
        s.name = "bench." + footer.at("bench").asString();
        s.layer = "bench";
        s.description = "ingested bench footer";
        s.points =
            static_cast<std::uint64_t>(footer.number("points"));
        s.samplesS = {footer.at("wall_s").asNumber()};
        s.timing = summarizeTimes(s.samplesS);
        // Extra numeric footer fields join the trajectory as
        // counter-style metrics.
        for (const auto &[key, value] : footer.asObject()) {
            if (key == "bench" || key == "schema" ||
                key == "wall_s" || key == "points")
                continue;
            if (value.isNumber())
                s.counters[key] = value.asNumber();
        }
        results.push_back(std::move(s));
    }
    return results;
}

// ---------------------------------------------------------------------
// Diffing.
// ---------------------------------------------------------------------

const char *
toString(DiffStatus status)
{
    switch (status) {
      case DiffStatus::Unchanged:
        return "ok";
      case DiffStatus::Improved:
        return "improved";
      case DiffStatus::Regressed:
        return "REGRESSED";
      case DiffStatus::Added:
        return "added";
      case DiffStatus::Removed:
        return "removed";
    }
    return "?";
}

namespace {

/** Relative wall-time change that counts as real. */
constexpr double wallThreshold = 0.10;
/** Noise gate width in MADs (of the noisier report). */
constexpr double madK = 3.0;
/** Absolute wall-time floor, seconds (clock granularity). */
constexpr double minWallDeltaS = 20e-6;
/** Relative threshold for per-rep counter deltas. */
constexpr double counterThreshold = 0.02;

DiffStatus
classify(double baseline, double current, double gate)
{
    if (current - baseline > gate)
        return DiffStatus::Regressed;
    if (baseline - current > gate)
        return DiffStatus::Improved;
    return DiffStatus::Unchanged;
}

/**
 * Fill diff.envWarnings with fingerprint mismatches. A field that is
 * "unknown" (or 0 for the integer fields) on either side predates the
 * fingerprint or failed to record, and is skipped: old baselines must
 * not warn on every diff.
 */
void
compareEnvironments(const EnvFingerprint &baseline,
                    const EnvFingerprint &current, DiffReport &diff)
{
    const auto check_string = [&diff](const char *what,
                                      const std::string &base,
                                      const std::string &cur) {
        if (base.empty() || cur.empty() || base == "unknown" ||
            cur == "unknown" || base == cur)
            return;
        diff.envWarnings.push_back(std::string(what) +
                                   " mismatch: baseline '" + base +
                                   "' vs current '" + cur + "'");
    };
    const auto check_int = [&diff](const char *what, int base,
                                   int cur) {
        if (base == 0 || cur == 0 || base == cur)
            return;
        diff.envWarnings.push_back(
            std::string(what) + " mismatch: baseline " +
            std::to_string(base) + " vs current " +
            std::to_string(cur));
    };
    check_string("host", baseline.host, current.host);
    check_string("git sha", baseline.gitSha, current.gitSha);
    check_int("jobs", baseline.jobs, current.jobs);
    check_int("cpu count", baseline.cpuCount, current.cpuCount);
    check_string("compiler", baseline.compiler, current.compiler);
    check_string("build type", baseline.buildType,
                 current.buildType);
}

} // namespace

DiffReport
diffReports(const BenchReport &baseline, const BenchReport &current)
{
    DiffReport diff;
    compareEnvironments(baseline.env, current.env, diff);
    std::map<std::string, const ScenarioResult *> base_by_name;
    for (const ScenarioResult &s : baseline.scenarios)
        base_by_name[s.name] = &s;

    auto count = [&diff](const DiffEntry &entry) {
        if (entry.status == DiffStatus::Regressed)
            ++diff.regressions;
        else if (entry.status == DiffStatus::Improved)
            ++diff.improvements;
        diff.entries.push_back(entry);
    };

    for (const ScenarioResult &cur : current.scenarios) {
        auto it = base_by_name.find(cur.name);
        if (it == base_by_name.end()) {
            DiffEntry entry;
            entry.scenario = cur.name;
            entry.metric = "wall_s";
            entry.current = cur.timing.medianS;
            entry.status = DiffStatus::Added;
            diff.entries.push_back(entry);
            continue;
        }
        const ScenarioResult &base = *it->second;
        base_by_name.erase(it);

        DiffEntry wall;
        wall.scenario = cur.name;
        wall.metric = "wall_s";
        wall.baseline = base.timing.medianS;
        wall.current = cur.timing.medianS;
        wall.gate = std::max(
            {wallThreshold * base.timing.medianS,
             madK * std::max(base.timing.madS, cur.timing.madS),
             minWallDeltaS});
        wall.delta = base.timing.medianS > 0.0
                         ? (cur.timing.medianS - base.timing.medianS) /
                               base.timing.medianS
                         : 0.0;
        wall.status = classify(base.timing.medianS,
                               cur.timing.medianS, wall.gate);
        count(wall);

        // Counters present in both runs: near-deterministic, so a
        // tight relative gate catches algorithmic drift that wall
        // noise would hide.
        for (const auto &[name, cur_value] : cur.counters) {
            auto base_it = base.counters.find(name);
            if (base_it == base.counters.end())
                continue;
            const double base_value = base_it->second;
            DiffEntry entry;
            entry.scenario = cur.name;
            entry.metric = name;
            entry.baseline = base_value;
            entry.current = cur_value;
            entry.gate = std::max(counterThreshold * base_value, 1.0);
            entry.delta =
                base_value > 0.0
                    ? (cur_value - base_value) / base_value
                    : 0.0;
            entry.status =
                classify(base_value, cur_value, entry.gate);
            if (entry.status != DiffStatus::Unchanged)
                count(entry);
        }
    }

    for (const auto &[name, base] : base_by_name) {
        DiffEntry entry;
        entry.scenario = name;
        entry.metric = "wall_s";
        entry.baseline = base->timing.medianS;
        entry.status = DiffStatus::Removed;
        diff.entries.push_back(entry);
    }
    return diff;
}

void
renderDiff(const DiffReport &diff, std::ostream &os)
{
    for (const std::string &warning : diff.envWarnings)
        os << "warning: env " << warning
           << " (comparing across environments)\n";
    if (!diff.envWarnings.empty())
        os << "\n";
    Table table({"scenario", "metric", "baseline", "current", "delta",
                 "gate", "verdict"});
    for (const DiffEntry &entry : diff.entries) {
        std::string delta = "-";
        if (entry.status != DiffStatus::Added &&
            entry.status != DiffStatus::Removed) {
            std::ostringstream oss;
            oss.precision(2);
            oss << std::fixed << std::showpos << entry.delta * 100.0
                << "%";
            delta = oss.str();
        }
        const bool is_wall = entry.metric == "wall_s";
        auto render_value = [is_wall](double v) {
            return is_wall ? formatSi(v, "s") : formatNumber(v);
        };
        table.row()
            .add(entry.scenario)
            .add(entry.metric)
            .add(render_value(entry.baseline))
            .add(render_value(entry.current))
            .add(delta)
            .add(render_value(entry.gate))
            .add(toString(entry.status));
    }
    table.render(os);
    os << "\n"
       << diff.regressions << " regression(s), " << diff.improvements
       << " improvement(s) past the noise gate\n";
}

} // namespace otft::perf
