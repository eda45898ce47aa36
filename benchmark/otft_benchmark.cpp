/**
 * @file
 * Figure-run benchmark. It runs the paper-figure flows through
 * the same public entry points the fig and mc binaries call, times
 * them, checks their outputs against committed golden values, and
 * reports end-to-end and per-layer metrics.
 *
 * Subcommands (benchmark/run.sh wraps them; see benchmark/README.md):
 *
 *   run --workload W [--seed N] [--seconds S] [--trace 0|1] [--record F]
 *   golden
 *   aggregate --out FILE RECORD...
 *   compare A.json B.json
 *
 * They run from the repository root. `run` prints one JSON object as
 * its last stdout line,
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}},
 * holding the end-to-end metrics with --trace 0 and the per-layer
 * metrics with --trace 1.
 *
 * It touches the program only through its public API. For the
 * program's own observability it uses cli::Session with --jobs and the
 * OTFT_STATS_JSON / OTFT_TRACE_JSON environment, and parses the files
 * those write, so the program's internals can change under it.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arch/config.hpp"
#include "arch/core.hpp"
#include "core/explorer.hpp"
#include "device/level61_model.hpp"
#include "liberty/characterizer.hpp"
#include "liberty/mc_characterizer.hpp"
#include "liberty/silicon.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/result_cache.hpp"
#include "workload/trace.hpp"

using namespace otft;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Build products, logs, run records and trace reports. */
const std::string outDir = "build/benchmark";
/** Holds organic.lib, the warm result cache and the raw trace files. */
const std::string workspaceDir = outDir + "/ws";
const std::string goldenDir = "benchmark/golden";
const std::string organicLib = workspaceDir + "/organic.lib";
const std::string warmCacheDir = workspaceDir + "/warm_cache";

// ------------------------------------------------------------------
// Files
// ------------------------------------------------------------------

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

json::Value
parseFile(const std::string &path)
{
    return json::parse(readFile(path));
}

std::vector<double>
numbers(const json::Value &array)
{
    std::vector<double> out;
    for (const json::Value &item : array.asArray())
        out.push_back(item.asNumber());
    return out;
}

/** A number with every digit, or null when it is not finite. */
std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

// ------------------------------------------------------------------
// Statistics
// ------------------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Quartiles as Python's statistics.quantiles(v, n=4) computes them. */
std::array<double, 3>
quartiles(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const long n = static_cast<long>(v.size());
    if (n == 0)
        return {0.0, 0.0, 0.0};
    if (n == 1)
        return {v[0], v[0], v[0]};
    std::array<double, 3> q{};
    const long m = n + 1;
    for (long i = 1; i <= 3; ++i) {
        const long j = std::clamp(i * m / 4, 1L, n - 1);
        const double delta = static_cast<double>(i * m - j * 4);
        q[static_cast<std::size_t>(i - 1)] =
            (v[static_cast<std::size_t>(j - 1)] * (4.0 - delta) +
             v[static_cast<std::size_t>(j)] * delta) / 4.0;
    }
    return q;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

// ------------------------------------------------------------------
// Process measurements
// ------------------------------------------------------------------

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
               1e-6;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** CPUs this process may run on (what `nproc` prints). */
int
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

/** Worker threads of every run: one per CPU, at most 4. */
int
benchmarkJobs()
{
    return std::min(4, availableCpus());
}

// ------------------------------------------------------------------
// Benchmark spans: seconds per public call this benchmark makes, by API
// name, recorded only while the traced body runs.
// ------------------------------------------------------------------

std::map<std::string, double> *g_benchSpans = nullptr;

/** Call fn(), recording a benchmark span named after the API it calls. */
template <typename Fn>
auto
call(const char *name, Fn &&fn) -> decltype(fn())
{
    struct Recorder
    {
        const char *name;
        Clock::time_point start = Clock::now();
        ~Recorder()
        {
            if (g_benchSpans)
                (*g_benchSpans)[name] += secondsSince(start);
        }
    } recorder{name};
    return fn();
}

// ------------------------------------------------------------------
// Outputs and their checks
// ------------------------------------------------------------------

/**
 * One checked output: a named design point, cell, or verdict. `fields`
 * hold the values compared with the golden file; `attempts` and
 * `failures` count the workload's own invariant checks on it.
 */
struct Op
{
    std::string name;
    std::vector<std::pair<std::string, std::vector<double>>> fields;
    std::size_t attempts = 1;
    std::size_t failures = 0;

    const std::vector<double> *
    field(const std::string &key) const
    {
        for (const auto &[k, v] : fields)
            if (k == key)
                return &v;
        return nullptr;
    }
};

using Ops = std::vector<Op>;

/**
 * How each field is compared with the golden file. IPC is exact;
 * timing, area and NLDM values allow a relative 1e-3 so a device-model
 * change that moves low-order bits still passes. Seeded fields depend
 * on the workload seed and are compared only at the golden seed.
 */
struct FieldRule
{
    const char *name;
    bool exact;
    bool seeded;
};

constexpr FieldRule fieldRules[] = {
    {"cfg", true, false},  {"ipc", true, true},    {"perf", false, true},
    {"freq", false, false}, {"area", false, false}, {"nldm", false, false},
    {"mc", false, true},
};

constexpr double relTolerance = 1e-3;

struct GoldenEntry
{
    std::uint64_t seed = 0;
    std::map<std::string, std::vector<double>> fields;
};

using Golden = std::map<std::string, GoldenEntry>;

bool
sameValues(const Op &a, const Op &b)
{
    return a.name == b.name && a.fields == b.fields;
}

/** Why `op` disagrees with its golden entry, or "" when it agrees. */
std::string
goldenMismatch(const Op &op, const Golden &golden, std::uint64_t seed)
{
    const auto entry = golden.find(op.name);
    if (entry == golden.end())
        return "no golden entry";
    for (const auto &[key, values] : op.fields) {
        const FieldRule *rule = nullptr;
        for (const FieldRule &r : fieldRules)
            if (key == r.name)
                rule = &r;
        if (!rule)
            return "unknown field " + key;
        for (double v : values)
            if (!std::isfinite(v))
                return key + " is not finite";
        if (rule->seeded && entry->second.seed != seed)
            continue;
        const auto ref = entry->second.fields.find(key);
        if (ref == entry->second.fields.end() ||
            ref->second.size() != values.size())
            return key + " differs in shape from golden";
        for (std::size_t i = 0; i < values.size(); ++i) {
            const double a = values[i];
            const double b = ref->second[i];
            const bool ok = rule->exact
                                ? a == b
                                : std::abs(a - b) <=
                                      relTolerance *
                                          std::max(std::abs(a),
                                                   std::abs(b));
            if (!ok)
                return key + "[" + std::to_string(i) + "] = " + num(a) +
                       ", golden " + num(b);
        }
    }
    return "";
}

/** The golden file of one workload. */
Golden
loadGolden(const std::string &workload)
{
    const json::Value doc = parseFile(goldenDir + "/" + workload + ".json");
    const auto seed = static_cast<std::uint64_t>(doc.number("seed"));
    Golden golden;
    for (const auto &[op_name, fields] : doc.at("ops").asObject()) {
        GoldenEntry &entry = golden[op_name];
        entry.seed = seed;
        for (const auto &[key, values] : fields.asObject())
            entry.fields[key] = numbers(values);
    }
    return golden;
}

void
writeGolden(const std::string &path, const std::string &workload,
            std::uint64_t seed, const Ops &ops)
{
    std::ofstream os(path);
    if (!os)
        throw std::runtime_error("cannot write " + path);
    os << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
       << ", \"ops\": {";
    for (std::size_t i = 0; i < ops.size(); ++i) {
        os << (i ? ",\n" : "\n") << "  \"" << ops[i].name << "\": {";
        for (std::size_t f = 0; f < ops[i].fields.size(); ++f) {
            const auto &[key, values] = ops[i].fields[f];
            os << (f ? ", " : "") << "\"" << key << "\": [";
            for (std::size_t k = 0; k < values.size(); ++k)
                os << (k ? ", " : "") << num(values[k]);
            os << "]";
        }
        os << "}";
    }
    os << "\n}}\n";
    if (!os)
        throw std::runtime_error("short write to " + path);
}

// ------------------------------------------------------------------
// Workloads
// ------------------------------------------------------------------

struct Context
{
    std::uint64_t seed = 0;
    std::optional<liberty::CellLibrary> organic;
    std::optional<liberty::CellLibrary> silicon;
    /** warm_rerun: the cold pass every re-run must reproduce. */
    Ops cold;
};

/** Instructions per IPC measurement in fig13 (and in fig11). */
constexpr std::uint64_t fig13Instructions = 100000;
/** fig14/fig15 need frequency and area only, so they simulate little. */
constexpr std::uint64_t frequencyOnlyInstructions = 1000;
/** In-process re-runs per warm_rerun body. */
constexpr int warmRerunsPerBody = 200;

std::vector<double>
configValues(std::uint64_t instructions, const arch::CoreConfig &c)
{
    std::vector<double> v = {static_cast<double>(instructions),
                             static_cast<double>(c.fetchWidth),
                             static_cast<double>(c.aluPipes),
                             static_cast<double>(c.memPipes),
                             static_cast<double>(c.branchPipes)};
    for (int s : c.stages)
        v.push_back(static_cast<double>(s));
    return v;
}

Op
pointOp(std::string name, std::uint64_t instructions,
        const core::DesignPoint &p)
{
    return Op{std::move(name),
              {{"cfg", configValues(instructions, p.config)},
               {"ipc", p.ipc},
               {"freq", {p.timing.frequency}},
               {"area", {p.timing.area}},
               {"perf", {p.performance}}}};
}

/** The two technologies, silicon first as in every figure binary. */
std::array<std::pair<const char *, const liberty::CellLibrary *>, 2>
libraries(const Context &ctx)
{
    return {{{"si", &*ctx.silicon}, {"org", &*ctx.organic}}};
}

core::ExplorerConfig
explorerConfig(std::uint64_t instructions, std::uint64_t seed,
               bool wire = true)
{
    core::ExplorerConfig config;
    config.instructions = instructions;
    config.seed = seed;
    config.sta.wireEnabled = wire;
    return config;
}

/**
 * A fig13/fig14 width sweep on both libraries. IPC is technology-free,
 * so organic and silicon IPC must agree at every configuration.
 */
void
widthFigure(const Context &ctx, const char *figure,
            std::uint64_t instructions, Ops &ops)
{
    std::size_t first[2] = {0, 0};
    int k = 0;
    for (const auto &[tag, lib] : libraries(ctx)) {
        first[k++] = ops.size();
        const core::WidthSweep sweep =
            call("core::ArchExplorer::widthSweep", [&] {
                core::ArchExplorer explorer(
                    *lib, explorerConfig(instructions, ctx.seed));
                return explorer.widthSweep();
            });
        for (const auto &row : sweep.points)
            for (const core::DesignPoint &p : row)
                ops.push_back(pointOp(
                    std::string(figure) + "/" + tag + "/fe" +
                        std::to_string(p.config.fetchWidth) + "/be" +
                        std::to_string(p.config.backendWidth()),
                    instructions, p));
    }
    if (ops.size() - first[1] != first[1] - first[0])
        throw std::runtime_error(std::string(figure) +
                                 ": the two width sweeps differ in size");
    for (std::size_t i = first[0]; i < first[1]; ++i) {
        Op &si = ops[i];
        Op &org = ops[first[1] + (i - first[0])];
        if (*si.field("ipc") != *org.field("ipc"))
            si.failures = org.failures = 1;
    }
}

void
aluFigure(const std::string &prefix, const liberty::CellLibrary &lib,
          const core::ExplorerConfig &config,
          const std::vector<int> &stages, Ops &ops)
{
    const std::vector<core::AluPoint> points =
        call("core::ArchExplorer::aluDepthSweep", [&] {
            core::ArchExplorer explorer(lib, config);
            return explorer.aluDepthSweep(stages);
        });
    for (const core::AluPoint &p : points)
        ops.push_back(Op{prefix + "/s" + std::to_string(p.stages),
                         {{"freq", {p.frequency}}, {"area", {p.area}}}});
}

void
clearResultCache()
{
    call("cache::ResultCache::clear",
         [] { cache::ResultCache::instance().clear(); });
}

/** fig13: the width sweep at 100k instructions on both libraries. */
Ops
widthPerf(Context &ctx)
{
    clearResultCache();
    Ops ops;
    widthFigure(ctx, "fig13", fig13Instructions, ops);
    return ops;
}

/** fig12 + fig14 + fig15: the synthesis-dominated figures. */
Ops
synthSweep(Context &ctx)
{
    static const std::vector<int> fig12Stages = {
        1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 26, 30};
    static const std::vector<int> fig15Stages = {1,  2,  4,  8,
                                                 12, 16, 22, 30};
    clearResultCache();
    Ops ops;
    for (const auto &[tag, lib] : libraries(ctx)) {
        core::ExplorerConfig config;
        config.seed = ctx.seed;
        aluFigure(std::string("fig12/") + tag, *lib, config, fig12Stages,
                  ops);
    }
    widthFigure(ctx, "fig14", frequencyOnlyInstructions, ops);
    for (const auto &[tag, lib] : libraries(ctx))
        for (bool wire : {true, false})
            aluFigure(std::string("fig15a/") + tag +
                          (wire ? "/wire" : "/nowire"),
                      *lib,
                      explorerConfig(fig13Instructions, ctx.seed, wire),
                      fig15Stages, ops);
    for (const auto &[tag, lib] : libraries(ctx))
        for (bool wire : {true, false}) {
            const core::DepthSweep sweep =
                call("core::ArchExplorer::depthSweep", [&] {
                    core::ArchExplorer explorer(
                        *lib, explorerConfig(frequencyOnlyInstructions,
                                             ctx.seed, wire));
                    return explorer.depthSweep(15);
                });
            for (const core::DesignPoint &p : sweep.points)
                ops.push_back(pointOp(
                    std::string("fig15b/") + tag +
                        (wire ? "/wire" : "/nowire") + "/s" +
                        std::to_string(p.config.totalStages()),
                    frequencyOnlyInstructions, p));
        }
    return ops;
}

/** Every delay and slew table entry of a cell, arc by arc. */
std::vector<double>
nldmValues(const liberty::StdCell &cell)
{
    std::vector<double> v;
    for (const liberty::TimingArc &arc : cell.arcs)
        for (int sense = 0; sense < 2; ++sense)
            for (const liberty::NldmTable *table :
                 {&arc.delay[sense], &arc.outputSlew[sense]})
                v.insert(v.end(), table->values().begin(),
                         table->values().end());
    return v;
}

/** Nominal organic characterization plus a 16-sample Monte Carlo. */
Ops
characterize(Context &ctx)
{
    clearResultCache();
    const liberty::CellLibrary nominal = call(
        "liberty::makeOrganicLibrary",
        [] { return liberty::makeOrganicLibrary(); });
    liberty::McConfig mc;
    mc.seed = ctx.seed;
    const liberty::StatLibrary stat =
        call("liberty::McCharacterizer::run",
             [&] { return liberty::McCharacterizer(mc).run(); });
    const std::string invalid =
        call("liberty::validateStatLibrary", [&] {
            return liberty::validateStatLibrary(stat.mean, stat.slow,
                                                stat.fast);
        });

    Ops ops;
    for (const std::string &name : nominal.cellNames())
        ops.push_back(
            Op{"nominal/" + name, {{"nldm", nldmValues(nominal.cell(name))}}});
    for (const std::string &name : stat.mean.cellNames())
        ops.push_back(
            Op{"mc/" + name, {{"mc", nldmValues(stat.mean.cell(name))}}});
    Op verdict{"mc/validate", {}};
    if (!invalid.empty()) {
        std::fprintf(stderr, "otft_benchmark: validateStatLibrary: %s\n",
                     invalid.c_str());
        verdict.failures = 1;
    }
    ops.push_back(std::move(verdict));
    return ops;
}

/**
 * The figure re-run warm_rerun repeats: the fig13 grid, then fig14.
 * A cache hit costs the same at any instruction count, so the fig13
 * grid simulates 2000 instructions to keep the untimed cold pass short.
 */
Ops
rerunFigures(const Context &ctx)
{
    Ops ops;
    widthFigure(ctx, "warm/fig13", 2000, ops);
    widthFigure(ctx, "warm/fig14", frequencyOnlyInstructions, ops);
    return ops;
}

/** Untimed: fill the on-disk result cache with one cold pass. */
void
warmPrepare(Context &ctx)
{
    fs::remove_all(warmCacheDir);
    cache::ResultCache &cache = cache::ResultCache::instance();
    cache.clear();
    cache.setDirectory(warmCacheDir);
    ctx.cold = rerunFigures(ctx);
    cache.flush();
}

/**
 * Repeated warm re-runs: acquire the libraries, reload the persisted
 * cache, re-evaluate fig13 and fig14 (every point a hit), flush. Each
 * point must be bit-identical to the cold pass, and a miss (the cache
 * growing) fails every point of that re-run.
 */
Ops
warmRerun(Context &ctx)
{
    cache::ResultCache &cache = cache::ResultCache::instance();
    Ops ops = ctx.cold;
    for (Op &op : ops)
        op.attempts = op.failures = 0;
    for (int rep = 0; rep < warmRerunsPerBody; ++rep) {
        ctx.organic = call("liberty::cachedOrganicLibrary", [] {
            return liberty::cachedOrganicLibrary(organicLib);
        });
        ctx.silicon = call("liberty::makeSiliconLibrary",
                           [] { return liberty::makeSiliconLibrary(); });
        clearResultCache();
        call("cache::ResultCache::setDirectory",
             [&] { cache.setDirectory(warmCacheDir); });
        const std::size_t loaded = cache.size();
        const Ops rerun = rerunFigures(ctx);
        const bool missed = cache.size() != loaded;
        call("cache::ResultCache::flush", [&] { cache.flush(); });

        if (rerun.size() != ops.size())
            throw std::runtime_error("warm re-run changed its output set");
        for (std::size_t i = 0; i < ops.size(); ++i) {
            ++ops[i].attempts;
            if (missed || rerun[i].failures ||
                !sameValues(rerun[i], ctx.cold[i]))
                ++ops[i].failures;
        }
    }
    return ops;
}

struct Workload
{
    const char *name;
    /** Seed of the committed golden outputs (the figure defaults). */
    std::uint64_t defaultSeed;
    void (*prepare)(Context &);
    Ops (*body)(Context &);
};

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"width_perf", 7, nullptr, widthPerf},
        {"synth_sweep", 7, nullptr, synthSweep},
        {"characterize", 1, nullptr, characterize},
        {"warm_rerun", 7, warmPrepare, warmRerun},
    };
    return all;
}

const Workload &
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (name == w.name)
            return w;
    throw std::runtime_error("unknown workload '" + name + "'");
}

/**
 * The set-up a figure binary pays before its first sweep in a fresh
 * directory: acquire the organic library, which characterizes it into
 * organic.lib, and build the silicon one. Acquiring it cold makes
 * set-up about a second of compute, which holds steady on a shared
 * host; a cached acquisition takes under a millisecond and doubles or
 * halves with the host's state. warm_rerun times the cached path.
 */
void
setUp(Context &ctx)
{
    fs::create_directories(workspaceDir);
    fs::remove(organicLib);
    ctx.organic = liberty::cachedOrganicLibrary(organicLib);
    ctx.silicon = liberty::makeSiliconLibrary();
}

/**
 * Construct a cli::Session with the benchmark's fixed flags; an empty
 * path turns that report off.
 */
void
openSession(std::optional<cli::Session> &session,
            const std::string &stats_json, const std::string &trace_json)
{
    for (const auto &[var, path] : {std::pair{"OTFT_STATS_JSON", &stats_json},
                                    std::pair{"OTFT_TRACE_JSON", &trace_json}})
        if (path->empty())
            unsetenv(var);
        else
            setenv(var, path->c_str(), 1);
    std::string args[] = {"otft_benchmark", "--jobs",
                          std::to_string(benchmarkJobs())};
    char *argv[] = {args[0].data(), args[1].data(), args[2].data(),
                    nullptr};
    int argc = 3;
    session.emplace("otft_benchmark", argc, argv);
}

// ------------------------------------------------------------------
// Measurement
// ------------------------------------------------------------------

struct Samples
{
    std::vector<double> wall;
    std::vector<double> cpu;
    std::size_t attempted = 0;
    std::size_t failed = 0;
};

/**
 * Run one timed body and check its outputs against the golden file
 * and against the first body of this process (bodies are identical
 * work, so their outputs must be bit-identical).
 */
bool
timedBody(const Workload &w, Context &ctx, const Golden &golden,
          Ops &first, Samples &s)
{
    static int reported = 0;
    const double cpu0 = cpuSeconds();
    const Clock::time_point t0 = Clock::now();
    Ops ops;
    try {
        ops = w.body(ctx);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "otft_benchmark: %s failed: %s\n", w.name,
                     e.what());
        ++s.attempted;
        ++s.failed;
        return false;
    }
    s.wall.push_back(secondsSince(t0));
    s.cpu.push_back(cpuSeconds() - cpu0);
    std::fprintf(stderr, "otft_benchmark: %s body %zu: wall %.4f s, cpu %.4f s\n",
                 w.name, s.wall.size(), s.wall.back(), s.cpu.back());

    const bool compare_first = !first.empty();
    if (compare_first && first.size() != ops.size()) {
        ++s.attempted;
        ++s.failed;
    }
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const Op &op = ops[i];
        std::string why = goldenMismatch(op, golden, ctx.seed);
        if (why.empty() && compare_first && i < first.size() &&
            !sameValues(op, first[i]))
            why = "differs from the first body";
        // A value mismatch fails every attempt; otherwise only the
        // attempts that broke a workload invariant fail.
        s.attempted += op.attempts;
        s.failed += why.empty() ? op.failures : op.attempts;
        if ((!why.empty() || op.failures) && reported++ < 10)
            std::fprintf(stderr, "otft_benchmark: %s: %s\n",
                         op.name.c_str(),
                         why.empty() ? "failed a workload invariant"
                                     : why.c_str());
    }
    if (!compare_first)
        first = std::move(ops);
    return true;
}

/**
 * Repeat bodies until the next body would end after `seconds`, running
 * at least `min_bodies`.
 */
void
measureFor(const Workload &w, Context &ctx, const Golden &golden,
           double seconds, std::size_t min_bodies, Ops &first, Samples &s)
{
    const Clock::time_point t0 = Clock::now();
    do {
        if (!timedBody(w, ctx, golden, first, s))
            return;
    } while (s.wall.size() < min_bodies ||
             secondsSince(t0) + s.wall.back() <= seconds);
}

// ------------------------------------------------------------------
// Traced-run analysis
// ------------------------------------------------------------------

/** Layer of a span: explorer/synth/core -> core, cache -> util. */
std::string
layerOf(const std::string &span)
{
    const std::string prefix = span.substr(0, span.find('.'));
    if (prefix == "explorer" || prefix == "synth" || prefix == "core")
        return "core";
    if (prefix == "cache")
        return "util";
    for (const char *module : {"device", "circuit", "cells", "liberty",
                               "netlist", "sta", "arch", "workload",
                               "util"})
        if (prefix == module)
            return module;
    return "other";
}

struct SpanTotals
{
    long count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
};

/**
 * Per-name span totals of a Chrome trace file. Self time is a span's
 * duration minus that of its direct children on the same thread.
 * Zero-width events (instants) are skipped.
 */
std::map<std::string, SpanTotals>
summarizeTrace(const std::string &path)
{
    struct Event
    {
        const std::string *name;
        double ts;
        double dur;
        double child = 0.0;
    };
    const json::Value trace = parseFile(path);
    std::map<long, std::vector<Event>> threads;
    for (const json::Value &e : trace.asArray()) {
        const double dur = e.number("dur");
        if (dur <= 0.0 || !e.has("name"))
            continue;
        threads[static_cast<long>(e.number("tid"))].push_back(
            {&e.at("name").asString(), e.number("ts"), dur});
    }

    std::map<std::string, SpanTotals> totals;
    for (auto &[tid, events] : threads) {
        std::sort(events.begin(), events.end(),
                  [](const Event &a, const Event &b) {
                      return a.ts != b.ts ? a.ts < b.ts : a.dur > b.dur;
                  });
        // The trace prints times with six significant digits, so a span
        // that starts just after its sibling ends can appear to start
        // inside it. A span is a child only if it also ends inside its
        // parent, within that rounding.
        std::vector<std::size_t> stack;
        for (std::size_t i = 0; i < events.size(); ++i) {
            const double end = events[i].ts + events[i].dur;
            const double tolerance = 1e-5 * end + 1e-3;
            while (!stack.empty()) {
                const Event &top = events[stack.back()];
                const double top_end = top.ts + top.dur;
                if (top_end > events[i].ts && end <= top_end + tolerance)
                    break;
                stack.pop_back();
            }
            if (!stack.empty())
                events[stack.back()].child += events[i].dur;
            stack.push_back(i);
        }
        for (const Event &e : events) {
            SpanTotals &t = totals[*e.name];
            ++t.count;
            t.total_s += e.dur * 1e-6;
            t.self_s += std::max(0.0, e.dur - e.child) * 1e-6;
        }
    }
    return totals;
}

/** Sum of the registry entries `prefix*suffix` (counters only). */
double
statSum(const json::Value &stats, const std::string &prefix,
        const std::vector<std::string> &suffixes)
{
    double sum = 0.0;
    for (const auto &[key, value] : stats.asObject()) {
        if (!value.isNumber() || key.compare(0, prefix.size(), prefix) != 0)
            continue;
        for (const std::string &suffix : suffixes)
            if (key.size() >= prefix.size() + suffix.size() &&
                key.compare(key.size() - suffix.size(), suffix.size(),
                            suffix) == 0) {
                sum += value.asNumber();
                break;
            }
    }
    return sum;
}

/** Registry deltas between two stats dumps of one process. */
struct StatDelta
{
    const json::Value &before;
    const json::Value &after;

    double
    operator()(const std::string &prefix,
               const std::vector<std::string> &suffixes) const
    {
        return statSum(after, prefix, suffixes) -
               statSum(before, prefix, suffixes);
    }
};

/** Level-61 drainCurrent + gm + gds on a fixed 32x32 bias grid. */
double
probeFetEvalNs()
{
    const device::Level61Model fet(device::Polarity::PType,
                                   device::Geometry{},
                                   device::Level61Params{});
    constexpr int n = 32;
    std::vector<double> passes;
    double sink = 0.0;
    const Clock::time_point start = Clock::now();
    while (passes.size() < 5 || secondsSince(start) < 0.2) {
        const Clock::time_point t0 = Clock::now();
        for (int i = 0; i < n; ++i)
            for (int j = 0; j < n; ++j) {
                const double vgs = -15.0 + 30.0 * i / (n - 1);
                const double vds = -15.0 + 30.0 * j / (n - 1);
                sink += fet.drainCurrent(vgs, vds) + fet.gm(vgs, vds) +
                        fet.gds(vgs, vds);
            }
        passes.push_back(secondsSince(t0) * 1e9 / (n * n));
    }
    if (!std::isfinite(sink))
        throw std::runtime_error("level-61 probe produced a non-finite "
                                 "current");
    return median(passes);
}

/**
 * CoreModel::run on 3 configurations x 7 workloads, and the standalone
 * TraceGenerator::next on the same 7 workloads.
 * @return {arch ns per committed instruction (trace generation
 *          included), workload ns per generated instruction}
 */
std::pair<double, double>
probeSimulator(std::uint64_t seed)
{
    constexpr std::uint64_t instructions = 20000;
    constexpr std::uint64_t warmup = 10000;
    std::vector<arch::CoreConfig> configs(3, arch::baselineConfig());
    configs[1].fetchWidth = 3;
    configs[1].aluPipes = 2;
    configs[2].fetchWidth = 6;
    configs[2].aluPipes = 5;
    const auto profiles = workload::paperWorkloads();

    double sim_s = 0.0;
    std::uint64_t committed = 0;
    for (const arch::CoreConfig &config : configs)
        for (const auto &profile : profiles) {
            workload::TraceGenerator trace(profile, seed);
            arch::CoreModel model(config, trace);
            const Clock::time_point t0 = Clock::now();
            const arch::SimStats stats = model.run(instructions, warmup);
            sim_s += secondsSince(t0);
            committed += stats.instructions + warmup;
        }

    double gen_s = 0.0;
    std::uint64_t generated = 0;
    std::uint64_t sink = 0;
    for (const auto &profile : profiles) {
        workload::TraceGenerator trace(profile, seed);
        const Clock::time_point t0 = Clock::now();
        for (std::uint64_t i = 0; i < instructions + warmup; ++i)
            sink += trace.next().pc;
        gen_s += secondsSince(t0);
        generated += instructions + warmup;
    }
    if (sink == 0)
        throw std::runtime_error("trace probe generated nothing");
    return {sim_s * 1e9 / static_cast<double>(committed),
            gen_s * 1e9 / static_cast<double>(generated)};
}

/** Median seconds of one cachedOrganicLibrary load of organic.lib. */
double
probeLibraryLoad()
{
    std::vector<double> loads;
    for (int k = 0; k < 11; ++k) {
        const Clock::time_point t0 = Clock::now();
        const liberty::CellLibrary lib =
            liberty::cachedOrganicLibrary(organicLib);
        loads.push_back(secondsSince(t0));
        if (lib.cellNames().empty())
            throw std::runtime_error("organic.lib loaded without cells");
    }
    return median(loads);
}

struct Metric
{
    std::string name;
    std::string unit;
    double value;
};

/** Everything the traced run measured. */
struct TracedRun
{
    const Workload &workload;
    std::uint64_t seed;
    int jobs;
    double bodyWall;
    double bodyCpu;
    double untracedWall;
    const Ops &ops;
    const std::map<std::string, double> &benchSpans;
};

/** Results of the probes for layers the program has no spans for. */
struct Probes
{
    double fetEvalNs;
    double archNsPerInst;
    double workloadNsPerInst;
    double libraryLoadS;
};

/** Self seconds per layer. */
std::map<std::string, double>
layerSelf(const std::map<std::string, SpanTotals> &spans)
{
    std::map<std::string, double> self;
    for (const auto &[name, t] : spans)
        self[layerOf(name)] += t.self_s;
    return self;
}

std::vector<Metric>
perLayerMetrics(const TracedRun &run,
                const std::map<std::string, SpanTotals> &spans,
                const StatDelta &delta, const Probes &probes)
{
    const double busy = run.bodyWall * run.jobs;
    const std::map<std::string, double> layer_self = layerSelf(spans);
    double attributed = 0.0, lookup_s = 0.0, synth_s = 0.0,
           simulate_s = 0.0;
    long simulate_calls = 0;
    for (const auto &[layer, self] : layer_self)
        if (layer != "other")
            attributed += self;
    for (const auto &[name, t] : spans) {
        if (name == "cache.lookup")
            lookup_s += t.self_s;
        if (name.rfind("synth.", 0) == 0)
            synth_s += t.self_s;
        if (name == "explorer.point.simulate") {
            simulate_s += t.self_s;
            simulate_calls += t.count;
        }
    }
    const auto benchSpan = [&](std::initializer_list<const char *> names) {
        double sum = 0.0;
        for (const char *n : names)
            sum += run.benchSpans.count(n) ? run.benchSpans.at(n) : 0.0;
        return sum;
    };

    // IPC simulations the body needed: one per distinct (instruction
    // count, configuration) among its design points.
    std::set<std::vector<double>> unique_ipc;
    for (const Op &op : run.ops)
        if (op.field("ipc"))
            unique_ipc.insert(*op.field("cfg"));

    const double region_hits = delta("synth.region_cache.hits", {""});
    const double region_misses = delta("synth.region_cache.misses", {""});
    const double cache_hits = delta("cache.hits", {""});
    const double cache_misses = delta("cache.misses", {""});
    const double steps = delta("circuit.", {".steps"});
    const double rejections = delta("circuit.", {"lte_rejections"});
    const double simulated = delta("arch.instructions.simulated", {""});
    const double generated = delta("workload.instructions.generated", {""});
    const auto frac = [&](const char *layer) {
        return ratio(layer_self.count(layer) ? layer_self.at(layer) : 0.0,
                     busy);
    };

    return {
        {"device.fet_eval_ns", "ns", probes.fetEvalNs},
        {"circuit.self_frac", "ratio", frac("circuit")},
        {"circuit.newton_iters", "count",
         delta("circuit.", {"newton.iterations"})},
        {"circuit.lu_factorizations", "count",
         delta("circuit.", {"lu.factorizations", "lu.factor_lanes"})},
        {"circuit.lte_reject_ratio", "ratio",
         ratio(rejections, steps + rejections)},
        {"circuit.newton_failures", "count",
         delta("circuit.", {"newton.failures"})},
        {"liberty.self_frac", "ratio", frac("liberty")},
        {"liberty.build_frac", "ratio",
         ratio(benchSpan({"liberty::makeOrganicLibrary"}), run.bodyWall)},
        {"liberty.mc_frac", "ratio",
         ratio(benchSpan({"liberty::McCharacterizer::run"}), run.bodyWall)},
        {"liberty.points_measured", "count",
         delta("liberty.points.measured", {""})},
        {"liberty.load_s", "s", probes.libraryLoadS},
        {"netlist.gates_created", "count", delta("netlist.gates.created", {""})},
        {"netlist.buffers_inserted", "count",
         delta("netlist.buffers.inserted", {""})},
        {"sta.self_frac", "ratio", frac("sta")},
        {"sta.arcs_evaluated", "count", delta("sta.arcs.evaluated", {""})},
        {"sta.analyses", "count", delta("sta.analyses", {""})},
        {"core.self_frac", "ratio", frac("core")},
        {"core.sweep_frac", "ratio",
         ratio(benchSpan({"core::ArchExplorer::widthSweep",
                       "core::ArchExplorer::depthSweep",
                       "core::ArchExplorer::aluDepthSweep"}),
               run.bodyWall)},
        {"core.synth_frac", "ratio", ratio(synth_s, busy)},
        {"core.simulate_frac", "ratio", ratio(simulate_s, busy)},
        {"core.points_evaluated", "count",
         delta("explorer.points.evaluated", {""})},
        {"core.ipc_useful_ratio", "ratio",
         ratio(static_cast<double>(unique_ipc.size()),
               static_cast<double>(simulate_calls))},
        {"core.region_cache_hit_ratio", "ratio",
         ratio(region_hits, region_hits + region_misses)},
        {"arch.self_frac", "ratio", frac("arch")},
        {"arch.ns_per_inst", "ns", probes.archNsPerInst},
        {"arch.instructions_simulated", "count", simulated},
        {"arch.cycles_simulated", "count",
         delta("arch.cycles.simulated", {""})},
        {"workload.self_frac", "ratio", frac("workload")},
        {"workload.ns_per_inst", "ns", probes.workloadNsPerInst},
        {"workload.insts_generated", "count", generated},
        {"workload.sim_per_gen_ratio", "ratio", ratio(simulated, generated)},
        {"util.self_frac", "ratio", frac("util")},
        {"util.cache_hit_ratio", "ratio",
         ratio(cache_hits, cache_hits + cache_misses)},
        {"util.cache_lookup_s", "s", lookup_s},
        {"util.cache_load_frac", "ratio",
         ratio(benchSpan({"cache::ResultCache::setDirectory"}),
               run.bodyWall)},
        {"util.cache_flush_frac", "ratio",
         ratio(benchSpan({"cache::ResultCache::flush"}), run.bodyWall)},
        {"util.pool_busy_frac", "ratio", ratio(run.bodyCpu, busy)},
        {"other.self_frac", "ratio", frac("other")},
        {"trace.coverage", "ratio", ratio(attributed, busy)},
        {"trace.overhead_frac", "ratio",
         run.bodyWall / run.untracedWall - 1.0},
        {"trace.body_s", "s", run.bodyWall},
    };
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
               num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
               "\"}";
    return out + "}";
}

/** The detailed attribution file of a traced run. */
void
writeTraceReport(const std::string &path, const TracedRun &run,
                 const std::map<std::string, SpanTotals> &spans,
                 const StatDelta &delta, const std::vector<Metric> &metrics)
{
    std::ofstream os(path);
    if (!os)
        throw std::runtime_error("cannot write " + path);
    os << "{\"workload\": \"" << run.workload.name
       << "\", \"seed\": " << run.seed << ", \"jobs\": " << run.jobs
       << ",\n \"body_wall_s\": " << num(run.bodyWall)
       << ", \"body_cpu_s\": " << num(run.bodyCpu)
       << ", \"untraced_wall_s\": " << num(run.untracedWall)
       << ",\n \"layers_self_s\": {";
    const char *sep = "";
    for (const auto &[layer, self] : layerSelf(spans)) {
        os << sep << "\"" << layer << "\": " << num(self);
        sep = ", ";
    }
    os << "},\n \"spans\": {";
    sep = "";
    for (const auto &[name, t] : spans) {
        os << sep << "\n  \"" << name << "\": {\"layer\": \""
           << layerOf(name) << "\", \"count\": " << t.count
           << ", \"total_s\": " << num(t.total_s)
           << ", \"self_s\": " << num(t.self_s) << "}";
        sep = ",";
    }
    os << "},\n \"bench_spans_s\": {";
    sep = "";
    for (const auto &[name, total] : run.benchSpans) {
        os << sep << "\n  \"" << name << "\": " << num(total);
        sep = ",";
    }
    os << "},\n \"counters\": {";
    sep = "";
    for (const auto &[key, value] : delta.after.asObject())
        if (value.isNumber()) {
            os << sep << "\n  \"" << key << "\": "
               << num(value.asNumber() - delta.before.number(key));
            sep = ",";
        }
    os << "},\n \"metrics\": " << metricsJson(metrics) << "}\n";
}

// ------------------------------------------------------------------
// Subcommands
// ------------------------------------------------------------------

/** Flag parser: --key value pairs plus positional arguments. */
struct Args
{
    std::map<std::string, std::string> flags;
    std::vector<std::string> positional;

    Args(int argc, char **argv, int first)
    {
        for (int i = first; i < argc; ++i) {
            const std::string a = argv[i];
            if (a.rfind("--", 0) == 0) {
                if (i + 1 >= argc)
                    throw std::runtime_error(a + " needs a value");
                flags[a.substr(2)] = argv[++i];
            } else {
                positional.push_back(a);
            }
        }
    }

    std::string
    get(const std::string &key, const std::string &fallback) const
    {
        const auto it = flags.find(key);
        return it == flags.end() ? fallback : it->second;
    }

    std::uint64_t
    integer(const std::string &key, std::uint64_t fallback) const
    {
        const auto it = flags.find(key);
        if (it == flags.end())
            return fallback;
        std::size_t used = 0;
        const unsigned long long v = std::stoull(it->second, &used);
        if (used != it->second.size() || it->second[0] == '-')
            throw std::runtime_error("--" + key + " must be a "
                                     "non-negative integer");
        return v;
    }
};

/**
 * An untraced run: set up, prepare, repeat bodies for `seconds`, tear
 * down. setup_s is the wall of all that minus the bodies: session,
 * library acquisition, the workload's preparation and teardown. It
 * starts after the golden file is read, because reading it is the
 * benchmark's own work and would otherwise be most of setup_s.
 */
std::vector<Metric>
untracedRun(const Workload &w, std::uint64_t seed, double seconds,
            Samples &s)
{
    const Golden golden = loadGolden(w.name);
    const Clock::time_point start = Clock::now();
    {
        Context ctx;
        ctx.seed = seed;
        std::optional<cli::Session> session;
        openSession(session, "", "");
        setUp(ctx);
        if (w.prepare)
            w.prepare(ctx);
        Ops first;
        measureFor(w, ctx, golden, seconds, 1, first, s);
    }
    if (s.wall.empty())
        throw std::runtime_error(std::string(w.name) +
                                 ": no body completed");
    const double bodies = std::accumulate(s.wall.begin(), s.wall.end(), 0.0);
    return {
        {"wall_s", "s", median(s.wall)},
        {"cpu_s", "s", median(s.cpu)},
        {"setup_s", "s", secondsSince(start) - bodies},
        {"peak_rss_mb", "MB", peakRssMb()},
    };
}

/**
 * A traced run. A first session holds set-up, preparation and untraced
 * reference bodies for half of `seconds`; a second, traced session runs
 * one body. Its registry dump minus the first's is what that body did.
 * The traced body is never a process's first, so neither is the
 * untraced reference it is compared with.
 */
std::vector<Metric>
tracedRun(const Workload &w, std::uint64_t seed, double seconds,
          Samples &s)
{
    const std::string stem = workspaceDir + "/" + w.name;
    const std::string stats_setup = stem + "_stats_setup.json";
    const std::string stats_body = stem + "_stats_body.json";
    const std::string raw_trace = stem + "_trace_raw.json";

    Context ctx;
    ctx.seed = seed;
    const Golden golden = loadGolden(w.name);
    Samples untraced;
    Ops first;
    {
        std::optional<cli::Session> session;
        openSession(session, stats_setup, "");
        setUp(ctx);
        if (w.prepare)
            w.prepare(ctx);
        measureFor(w, ctx, golden, seconds / 2, 2, first, untraced);
    }
    s.attempted += untraced.attempted;
    s.failed += untraced.failed;
    if (untraced.wall.size() < 2)
        throw std::runtime_error(std::string(w.name) +
                                 ": too few untraced bodies completed");
    std::map<std::string, double> bench_spans;
    {
        std::optional<cli::Session> session;
        openSession(session, stats_body, raw_trace);
        g_benchSpans = &bench_spans;
        const bool done = timedBody(w, ctx, golden, first, s);
        g_benchSpans = nullptr;
        if (!done)
            throw std::runtime_error(std::string(w.name) +
                                     ": the traced body failed");
    }

    const json::Value before = parseFile(stats_setup);
    const json::Value after = parseFile(stats_body);
    const StatDelta delta{before, after};
    const TracedRun run{w,
                        seed,
                        benchmarkJobs(),
                        s.wall.front(),
                        s.cpu.front(),
                        median(std::vector<double>(untraced.wall.begin() + 1,
                                                   untraced.wall.end())),
                        first,
                        bench_spans};
    const auto spans = summarizeTrace(raw_trace);
    const auto [arch_ns, workload_ns] = probeSimulator(seed);
    const Probes probes{probeFetEvalNs(), arch_ns, workload_ns,
                        probeLibraryLoad()};
    const std::vector<Metric> metrics =
        perLayerMetrics(run, spans, delta, probes);
    const std::string report = outDir + "/trace_" + w.name + ".json";
    writeTraceReport(report, run, spans, delta, metrics);
    std::fprintf(stderr, "otft_benchmark: wrote %s\n", report.c_str());
    return metrics;
}

int
cmdRun(const Args &args)
{
    const Workload &w = findWorkload(args.get("workload", ""));
    const std::uint64_t seed = args.integer("seed", w.defaultSeed);
    const double seconds =
        static_cast<double>(args.integer("seconds", 10));
    const bool traced = args.integer("trace", 0) != 0;

    Samples s;
    const std::vector<Metric> metrics =
        traced ? tracedRun(w, seed, seconds, s)
               : untracedRun(w, seed, seconds, s);

    const std::string result =
        std::string("{\"correct\": ") + (s.failed == 0 ? "true" : "false") +
        ", \"attempted\": " + std::to_string(s.attempted) +
        ", \"failed\": " + std::to_string(s.failed) +
        ", \"metrics\": " + metricsJson(metrics) + "}";
    if (args.flags.count("record")) {
        std::ofstream os(args.get("record", ""));
        os << "{\"workload\": \"" << w.name << "\", \"seed\": " << seed
           << ", \"jobs\": " << benchmarkJobs()
           << ", \"nproc\": " << availableCpus()
           << ", \"trace\": " << (traced ? 1 : 0)
           << ", \"result\": " << result << "}\n";
        if (!os)
            throw std::runtime_error("cannot write the run record");
    }
    std::printf("%s\n", result.c_str());
    return 0;
}

int
cmdGolden()
{
    fs::create_directories(goldenDir);
    Context ctx;
    std::optional<cli::Session> session;
    openSession(session, "", "");
    setUp(ctx);
    for (const Workload &w : workloads()) {
        ctx.seed = w.defaultSeed;
        if (w.prepare)
            w.prepare(ctx);
        const std::string path = goldenDir + "/" + w.name + ".json";
        writeGolden(path, w.name, ctx.seed, w.body(ctx));
        std::printf("wrote %s\n", path.c_str());
    }
    return 0;
}

int
cmdAggregate(const Args &args)
{
    const json::Value bench = parseFile("BENCHMARK.json");

    std::vector<std::string> order;
    std::map<std::string, std::vector<json::Value>> runs, traces;
    int jobs = 0, nproc = 0;
    for (const std::string &path : args.positional) {
        json::Value record = parseFile(path);
        const std::string name = record.string("workload");
        if (name.empty() || !record.has("result"))
            throw std::runtime_error(path + " is not a run record");
        if (!runs.count(name) && !traces.count(name))
            order.push_back(name);
        if (record.has("jobs")) {
            jobs = static_cast<int>(record.number("jobs"));
            nproc = static_cast<int>(record.number("nproc"));
        }
        (record.number("trace") ? traces : runs)[name].push_back(
            std::move(record));
    }

    bool all_correct = true;
    std::ostringstream os;
    os << "{\"schema\": \"otft-benchmark-results-1\", \"jobs\": " << jobs
       << ", \"nproc\": " << nproc << ", \"workloads\": {";
    std::printf("%-13s %-28s %-6s %14s %14s %14s %3s %6s\n", "workload",
                "metric", "unit", "median", "min", "max", "n", "bound");
    for (std::size_t wi = 0; wi < order.size(); ++wi) {
        const std::string &w = order[wi];
        os << (wi ? "," : "") << "\n \"" << w << "\": {\"end_to_end\": {";
        struct Row
        {
            std::string name, unit, better;
            double bound;
            std::vector<double> samples;
        };
        std::vector<Row> rows;
        for (const json::Value &m : bench.at("end_to_end").asArray())
            rows.push_back({m.string("name"), m.string("unit"),
                            m.string("better"), m.number("bound"), {}});
        rows.push_back({"fail_frac", "ratio", "lower", 0.0, {}});
        for (const json::Value &record : runs[w]) {
            const json::Value &result = record.at("result");
            all_correct = all_correct && result.at("correct").asBool();
            const json::Value &metrics = result.at("metrics");
            for (Row &row : rows) {
                if (row.name == "fail_frac")
                    row.samples.push_back(ratio(result.number("failed"),
                                                result.number("attempted")));
                else if (metrics.has(row.name))
                    row.samples.push_back(
                        metrics.at(row.name).number("value"));
            }
        }
        for (std::size_t ri = 0; ri < rows.size(); ++ri) {
            const Row &row = rows[ri];
            if (row.samples.empty())
                continue;
            const auto [lo, hi] =
                std::minmax_element(row.samples.begin(), row.samples.end());
            const auto q = quartiles(row.samples);
            const double med = median(row.samples);
            std::printf("%-13s %-28s %-6s %14.6g %14.6g %14.6g %3zu %6.3g\n",
                        w.c_str(), row.name.c_str(), row.unit.c_str(), med,
                        *lo, *hi, row.samples.size(), row.bound);
            os << (ri ? "," : "") << "\n  \"" << row.name
               << "\": {\"unit\": \"" << row.unit << "\", \"better\": \""
               << row.better << "\", \"bound\": " << num(row.bound)
               << ", \"median\": " << num(med) << ", \"q1\": " << num(q[0])
               << ", \"q3\": " << num(q[2]) << ", \"min\": " << num(*lo)
               << ", \"max\": " << num(*hi)
               << ", \"n\": " << row.samples.size() << ", \"samples\": [";
            for (std::size_t k = 0; k < row.samples.size(); ++k)
                os << (k ? ", " : "") << num(row.samples[k]);
            os << "]}";
        }
        os << "}, \"per_layer\": {";
        if (!traces[w].empty()) {
            const json::Value &result = traces[w].back().at("result");
            all_correct = all_correct && result.at("correct").asBool();
            const char *sep = "";
            for (const auto &[name, m] : result.at("metrics").asObject()) {
                std::printf("%-13s %-28s %-6s %14.6g   (traced run)\n",
                            w.c_str(), name.c_str(),
                            m.string("unit").c_str(), m.number("value"));
                os << sep << "\n  \"" << name
                   << "\": {\"value\": " << num(m.number("value"))
                   << ", \"unit\": \"" << m.string("unit") << "\"}";
                sep = ",";
            }
        }
        os << "}}";
    }
    os << "}}\n";
    const std::string out = args.get("out", outDir + "/results.json");
    std::ofstream file(out);
    file << os.str();
    if (!file)
        throw std::runtime_error("cannot write " + out);
    std::printf("jobs %d of nproc %d; wrote %s%s\n", jobs, nproc,
                out.c_str(),
                all_correct ? "" : "; SOME OUTPUTS FAILED THEIR CHECKS");
    return all_correct ? 0 : 1;
}

/**
 * Compare two results files metric by metric. A metric is unresolved
 * when either side's quartile spread exceeds its bound, unless every
 * run of B beats every run of A.
 */
int
cmdCompare(const Args &args)
{
    if (args.positional.size() != 2)
        throw std::runtime_error("compare needs two results files");
    const json::Value a = parseFile(args.positional[0]);
    const json::Value b = parseFile(args.positional[1]);
    const json::Value &b_workloads = b.at("workloads");
    bool regressed = false;
    std::printf("%-13s %-12s %12s %25s %12s %25s %8s %6s  %s\n",
                "workload", "metric", "A median", "A [q1, q3]", "B median",
                "B [q1, q3]", "change", "bound", "verdict");
    for (const auto &[w, wa] : a.at("workloads").asObject()) {
        if (!b_workloads.has(w)) {
            std::printf("%-13s missing from B\n", w.c_str());
            regressed = true;
            continue;
        }
        const json::Value &eb = b_workloads.at(w).at("end_to_end");
        for (const auto &[name, ma] : wa.at("end_to_end").asObject()) {
            if (!eb.has(name))
                continue;
            const json::Value &mb = eb.at(name);
            const double sign =
                ma.string("better") == "higher" ? -1.0 : 1.0;
            const double bound = ma.number("bound");
            const double med_a = ma.number("median");
            const double med_b = mb.number("median");
            const auto sa = numbers(ma.at("samples"));
            const auto sb = numbers(mb.at("samples"));
            const auto [min_a, max_a] = std::minmax_element(sa.begin(), sa.end());
            const auto [min_b, max_b] = std::minmax_element(sb.begin(), sb.end());
            const double worst_b = sign > 0 ? *max_b : *min_b;
            const double best_a = sign > 0 ? *min_a : *max_a;
            const bool all_better = sign * (worst_b - best_a) < 0.0;
            const double change = sign * ratio(med_b - med_a, med_a);
            const double spread =
                std::max(ratio(ma.number("q3") - ma.number("q1"), med_a),
                         ratio(mb.number("q3") - mb.number("q1"), med_b));
            std::string verdict;
            if (name == "fail_frac")
                verdict = med_b > med_a || *max_b > *max_a ? "worse"
                          : med_b < med_a                  ? "better"
                                                           : "unchanged";
            else if (spread > bound)
                verdict = all_better ? "better" : "unresolved";
            else if (change > bound)
                verdict = "worse";
            else if (all_better && -change > spread)
                verdict = "better";
            else
                verdict = "unchanged";
            regressed = regressed || verdict == "worse";
            char qa[64], qb[64];
            std::snprintf(qa, sizeof(qa), "[%.4g, %.4g]", ma.number("q1"),
                          ma.number("q3"));
            std::snprintf(qb, sizeof(qb), "[%.4g, %.4g]", mb.number("q1"),
                          mb.number("q3"));
            std::printf("%-13s %-12s %12.5g %25s %12.5g %25s %+7.2f%% "
                        "%6.3g  %s\n",
                        w.c_str(), name.c_str(), med_a, qa, med_b, qb,
                        100.0 * change, bound, verdict.c_str());
        }
    }
    return regressed ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: otft_benchmark run|golden|aggregate|compare "
                     "[args]  (see benchmark/README.md)\n");
        return 2;
    }
    const std::string command = argv[1];
    try {
        const Args args(argc, argv, 2);
        if (command == "run")
            return cmdRun(args);
        if (command == "golden")
            return cmdGolden();
        if (command == "aggregate")
            return cmdAggregate(args);
        if (command == "compare")
            return cmdCompare(args);
        std::fprintf(stderr, "otft_benchmark: unknown command '%s'\n",
                     command.c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "otft_benchmark: %s\n", e.what());
    }
    return 2;
}
