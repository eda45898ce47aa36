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
        os << "      \"wall_s\": {\"min\": " << json::number(s.timing.minS)
           << ", \"median\": " << json::number(s.timing.medianS)
           << ", \"mad\": " << json::number(s.timing.madS)
           << ", \"p95\": " << json::number(s.timing.p95S)
           << ", \"mean\": " << json::number(s.timing.meanS)
           << ", \"total\": " << json::number(s.timing.totalS) << "},\n";
        os << "      \"samples_s\": [";
        for (std::size_t i = 0; i < s.samplesS.size(); ++i)
            os << (i ? ", " : "") << json::number(s.samplesS[i]);
        os << "],\n";
        os << "      \"counters\": {";
        bool first_counter = true;
        for (const auto &[name, value] : s.counters) {
            os << (first_counter ? "" : ", ");
            first_counter = false;
            os << "\"" << json::escape(name)
               << "\": " << json::number(value);
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
        // The samples are the record; the written summary is derived.
        for (const json::Value &v : item.at("samples_s").asArray())
            s.samplesS.push_back(v.asNumber());
        s.timing = summarizeTimes(s.samplesS);
        if (item.has("counters"))
            for (const auto &[name, value] :
                 item.at("counters").asObject())
                s.counters[name] = value.asNumber();
        report.scenarios.push_back(std::move(s));
    }
    return report;
}

namespace {

/**
 * Append `more`'s samples to `into`'s in order. Counters become the
 * per-rep mean over both (a counter absent on one side did not move
 * there); points are the latest.
 */
void
appendSamples(ScenarioResult &into, const ScenarioResult &more)
{
    const double n_into = static_cast<double>(into.samplesS.size());
    const double n_more = static_cast<double>(more.samplesS.size());
    for (auto &[name, value] : into.counters)
        value *= n_into;
    for (const auto &[name, value] : more.counters)
        into.counters[name] += value * n_more;
    for (auto &[name, value] : into.counters)
        value /= n_into + n_more;
    into.samplesS.insert(into.samplesS.end(), more.samplesS.begin(),
                         more.samplesS.end());
    into.points = more.points;
    into.timing = summarizeTimes(into.samplesS);
}

/** Merge `more` into the result of the same name, else add it. */
void
addResult(std::vector<ScenarioResult> &results, ScenarioResult more)
{
    for (ScenarioResult &r : results)
        if (r.name == more.name)
            return appendSamples(r, more);
    results.push_back(std::move(more));
}

} // namespace

void
appendReport(const std::string &path, const BenchReport &run)
{
    BenchReport report = run;
    if (std::ifstream is{path}) {
        try {
            report = readReport(is);
        } catch (const FatalError &) {
            fatal("perf: ", path, " is not a report; not overwriting it");
        }
        if (report.env.gitSha != run.env.gitSha)
            fatal("perf: ", path, " holds a report of build ",
                  report.env.gitSha, ", not ", run.env.gitSha,
                  "; not overwriting it");
        report.reps += run.reps;
        for (const ScenarioResult &s : run.scenarios)
            addResult(report.scenarios, s);
    }
    std::ofstream os(path);
    writeReport(report, os);
    if (!os)
        fatal("perf: cannot write ", path);
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
        addResult(results, std::move(s));
    }
    return results;
}

// ---------------------------------------------------------------------
// Paired diffing.
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
      case DiffStatus::Unpaired:
        return "unpaired";
      case DiffStatus::Added:
        return "added";
      case DiffStatus::Removed:
        return "removed";
    }
    return "?";
}

namespace {

/** Relative threshold for per-rep counter deltas. */
constexpr double counterThreshold = 0.02;
/** Fewest pairs that give a wall-time verdict. */
constexpr std::size_t minPairs = 10;

/** Relative change from `base` to `cur`; 0 for a zero base. */
double
relative(double base, double cur)
{
    return base > 0.0 ? (cur - base) / base : 0.0;
}

/** The paired wall-time verdict of `cur` against `base`. */
void
comparePaired(const ScenarioResult &base, const ScenarioResult &cur,
              DiffEntry &wall)
{
    const std::size_t n = base.samplesS.size();
    if (n != cur.samplesS.size() || n < minPairs) {
        wall.status = DiffStatus::Unpaired;
        return;
    }
    wall.pairs = n;
    for (std::size_t i = 0; i < n; ++i) {
        wall.wins += cur.samplesS[i] < base.samplesS[i];
        wall.losses += cur.samplesS[i] > base.samplesS[i];
    }
    std::vector<double> sorted = base.samplesS;
    std::sort(sorted.begin(), sorted.end());
    wall.baselineIqr =
        percentileSorted(sorted, 75.0) - percentileSorted(sorted, 25.0);
    const double gap = wall.current - wall.baseline;
    if (10 * wall.losses >= 9 * n && gap > wall.baselineIqr)
        wall.status = DiffStatus::Regressed;
    else if (10 * wall.wins >= 9 * n && -gap > wall.baselineIqr)
        wall.status = DiffStatus::Improved;
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
            count({.scenario = cur.name,
                   .metric = "wall_s",
                   .current = cur.timing.medianS,
                   .status = DiffStatus::Added});
            continue;
        }
        const ScenarioResult &base = *it->second;
        base_by_name.erase(it);

        const double base_s = base.timing.medianS;
        const double cur_s = cur.timing.medianS;
        DiffEntry wall{.scenario = cur.name,
                       .metric = "wall_s",
                       .baseline = base_s,
                       .current = cur_s,
                       .delta = relative(base_s, cur_s)};
        comparePaired(base, cur, wall);
        count(wall);

        // Counters present in both runs: near-deterministic, so a
        // tight relative threshold catches algorithmic drift that
        // wall noise would hide.
        for (const auto &[name, cur_value] : cur.counters) {
            auto base_it = base.counters.find(name);
            if (base_it == base.counters.end())
                continue;
            const double base_value = base_it->second;
            const double moved = cur_value - base_value;
            if (std::abs(moved) <=
                std::max(counterThreshold * base_value, 1.0))
                continue;
            count({.scenario = cur.name,
                   .metric = name,
                   .baseline = base_value,
                   .current = cur_value,
                   .delta = relative(base_value, cur_value),
                   .status = moved > 0.0 ? DiffStatus::Regressed
                                         : DiffStatus::Improved});
        }
    }

    for (const auto &[name, base] : base_by_name)
        count({.scenario = name,
               .metric = "wall_s",
               .baseline = base->timing.medianS,
               .status = DiffStatus::Removed});
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
                 "base IQR", "won/lost", "verdict"});
    int unpaired = 0;
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
        unpaired += entry.status == DiffStatus::Unpaired;
        const bool paired = entry.pairs > 0;
        const std::string won_lost = std::to_string(entry.wins) + "/" +
                                     std::to_string(entry.losses) +
                                     " of " + std::to_string(entry.pairs);
        table.row()
            .add(entry.scenario)
            .add(entry.metric)
            .add(render_value(entry.baseline))
            .add(render_value(entry.current))
            .add(delta)
            .add(paired ? formatSi(entry.baselineIqr, "s") : "-")
            .add(paired ? won_lost : "-")
            .add(toString(entry.status));
    }
    table.render(os);
    os << "\n"
       << diff.regressions << " regression(s), " << diff.improvements
       << " improvement(s), " << unpaired
       << " unpaired (unequal sample counts, or fewer than " << minPairs
       << ")\n";
}

} // namespace otft::perf
