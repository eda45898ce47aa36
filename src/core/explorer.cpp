#include "core/explorer.hpp"

#include <algorithm>

#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "util/result_cache.hpp"
#include "util/stats.hpp"
#include "util/stats_registry.hpp"
#include "util/trace.hpp"

namespace otft::core {

namespace {

/** Flatten a CoreTiming into the timing-tier payload format. */
std::vector<double>
packTiming(const CoreTiming &t)
{
    std::vector<double> v;
    v.push_back(t.clockPeriod);
    v.push_back(t.frequency);
    v.push_back(t.area);
    v.push_back(static_cast<double>(static_cast<int>(t.critical)));
    v.push_back(static_cast<double>(t.complexAluStages));
    v.push_back(static_cast<double>(t.regions.size()));
    for (const RegionTiming &r : t.regions) {
        v.push_back(static_cast<double>(static_cast<int>(r.region)));
        v.push_back(static_cast<double>(r.stages));
        v.push_back(r.clockPeriod);
        v.push_back(r.area);
        v.push_back(static_cast<double>(r.cells));
    }
    return v;
}

/** Inverse of packTiming. @return false on a malformed payload. */
bool
unpackTiming(const std::vector<double> &v, CoreTiming &out)
{
    std::size_t i = 0;
    const auto next = [&](double &dst) {
        if (i >= v.size())
            return false;
        dst = v[i++];
        return true;
    };
    CoreTiming t;
    double critical = 0.0, alu_stages = 0.0, n_regions = 0.0;
    if (!next(t.clockPeriod) || !next(t.frequency) || !next(t.area) ||
        !next(critical) || !next(alu_stages) || !next(n_regions))
        return false;
    if (critical < 0.0 || critical >= arch::numRegions ||
        n_regions < 0.0 || n_regions > arch::numRegions)
        return false;
    t.critical = static_cast<arch::Region>(static_cast<int>(critical));
    t.complexAluStages = static_cast<int>(alu_stages);
    for (int k = 0; k < static_cast<int>(n_regions); ++k) {
        RegionTiming r;
        double region = 0.0, stages = 0.0, cells = 0.0;
        if (!next(region) || !next(stages) || !next(r.clockPeriod) ||
            !next(r.area) || !next(cells))
            return false;
        if (region < 0.0 || region >= arch::numRegions)
            return false;
        r.region = static_cast<arch::Region>(static_cast<int>(region));
        r.stages = static_cast<int>(stages);
        r.cells = static_cast<std::size_t>(cells);
        t.regions.push_back(r);
    }
    if (i != v.size())
        return false;
    out = std::move(t);
    return true;
}

/** Hash every field of a core configuration into a cache key. */
void
addConfig(cache::KeyHasher &key, const arch::CoreConfig &config)
{
    key.add(config.fetchWidth).add(config.aluPipes);
    key.add(config.memPipes).add(config.branchPipes);
    for (int s : config.stages)
        key.add(s);
    key.add(config.robSize).add(config.iqSize).add(config.lsqSize);
    key.add(config.predictorBits);
    key.add(config.mulLatency).add(config.divLatency);
    key.add(config.l1Latency).add(config.l2Latency);
    key.add(config.memLatency);
}

} // namespace

ArchExplorer::ArchExplorer(const liberty::CellLibrary &library,
                           ExplorerConfig config)
    : library(library), config_(config), synth(library, config.sta),
      workloads(workload::paperWorkloads()),
      libraryHash(library.contentHash())
{
}

arch::FrontEndStream &
ArchExplorer::stream(std::size_t index, int predictor_bits)
{
    return *streams.get({index, predictor_bits}, [&] {
        return std::make_unique<arch::FrontEndStream>(
            workloads[index], config_.seed, predictor_bits);
    });
}

std::vector<double>
ArchExplorer::measureIpc(const arch::CoreConfig &config)
{
    OTFT_TRACE_SCOPE("explorer.point.simulate");

    // Each workload simulates on its own core model, reading its own
    // cursor on the shared stream, so the seven IPC runs fan out;
    // slots land in paperWorkloads() order, identical to the serial
    // loop.
    return parallel::orderedMap<double>(
        workloads.size(), [&](std::size_t i) {
            arch::CoreModel core(config,
                                 stream(i, config.predictorBits));
            return core.run(config_.instructions).ipc();
        });
}

DesignPoint
ArchExplorer::evaluate(const arch::CoreConfig &config)
{
    static stats::Counter &stat_points = stats::counter(
        "explorer.points.evaluated",
        "design points synthesized and simulated");
    static stats::Accumulator &stat_synth_time = stats::accumulator(
        "explorer.point.synth_time",
        "seconds synthesizing per design point");
    OTFT_TRACE_SCOPE("explorer.point.evaluate");
    trace::Scope diag_ctx(trace::labelled, [&] {
        return "explorer.point.fe" + std::to_string(config.fetchWidth) +
               ".alu" + std::to_string(config.aluPipes) + ".s" +
               std::to_string(config.totalStages());
    });
    ++stat_points;

    // Two cache tiers, keyed on exactly what determines each half.
    // Timing depends on the library, the STA set-up and the core, but
    // not on the workloads; IPC depends on the core and the workloads,
    // but not on the technology (one simulation serves both
    // libraries, as in the paper).
    DesignPoint point;
    point.config = config;
    std::vector<double> payload;

    cache::KeyHasher timing_key;
    timing_key.add("explorer.timing-v1").add(libraryHash);
    const sta::StaConfig &sta = synth.staConfig();
    timing_key.add(sta.wireEnabled).add(sta.extraSpanPerNet);
    timing_key.add(sta.registerInputs).add(sta.registerOutputs);
    addConfig(timing_key, config);
    if (!cache::lookup("explorer.timing", timing_key.digest(), payload) ||
        !unpackTiming(payload, point.timing)) {
        trace::Scope timer(nullptr, &stat_synth_time);
        point.timing = synth.synthesize(config);
        cache::store("explorer.timing", timing_key.digest(),
                     packTiming(point.timing));
    }

    cache::KeyHasher ipc_key;
    ipc_key.add("explorer.ipc-v1");
    ipc_key.add(config_.instructions).add(config_.seed);
    addConfig(ipc_key, config);
    if (cache::lookup("explorer.ipc", ipc_key.digest(), payload) &&
        payload.size() == workloads.size()) {
        point.ipc = std::move(payload);
    } else {
        point.ipc = measureIpc(config);
        cache::store("explorer.ipc", ipc_key.digest(), point.ipc);
    }

    point.meanIpc = mean(point.ipc);
    point.performance = point.meanIpc * point.timing.frequency;
    return point;
}

DepthSweep
ArchExplorer::depthSweep(int max_stages)
{
    OTFT_TRACE_SCOPE("explorer.sweep.depth");
    DepthSweep sweep;
    sweep.libraryName = library.name();
    for (const auto &profile : workloads)
        sweep.workloadNames.push_back(profile.name);

    arch::CoreConfig config = arch::baselineConfig();
    if (config.totalStages() > max_stages)
        fatal("depthSweep: max_stages below the baseline depth");

    while (true) {
        sweep.points.push_back(evaluate(config));
        if (config.totalStages() >= max_stages)
            break;
        // Cut the critical stage of the point just timed (what
        // synth.deepen(config) would re-synthesize to find).
        ++config.stagesIn(sweep.points.back().timing.critical);
    }
    return sweep;
}

std::size_t
widthSweepSlot(std::size_t k, std::size_t n_fe, std::size_t n_be)
{
    const std::size_t short_axis = std::min(n_fe, n_be);
    const std::size_t long_axis = std::max(n_fe, n_be);
    const std::size_t s = k % short_axis;
    const std::size_t l = (s + k / short_axis) % long_axis;
    const bool fe_short = n_fe <= n_be;
    return (fe_short ? l : s) * n_fe + (fe_short ? s : l);
}

WidthSweep
ArchExplorer::widthSweep(int fe_min, int fe_max, int be_min, int be_max)
{
    OTFT_TRACE_SCOPE("explorer.sweep.width");
    WidthSweep sweep;
    sweep.libraryName = library.name();
    sweep.feMin = fe_min;
    sweep.feMax = fe_max;
    sweep.beMin = be_min;
    sweep.beMax = be_max;

    // Validate the whole grid before spawning any work.
    const arch::CoreConfig base = arch::baselineConfig();
    for (int be = be_min; be <= be_max; ++be)
        if (be - base.memPipes - base.branchPipes < 1)
            fatal("widthSweep: back-end width ", be,
                  " leaves no ALU pipes");

    // One task per (be, fe) point, all synthesizing through the shared
    // synthesizer: a front-end block is built and timed once per fetch
    // width and a back-end block once per back-end width, whichever
    // task asks first. Tasks start in wrapped-diagonal order, so the
    // points in flight at once ask for distinct blocks instead of
    // waiting on one; each result lands in its grid slot.
    const std::size_t n_fe =
        static_cast<std::size_t>(fe_max - fe_min + 1);
    const std::size_t n_be =
        static_cast<std::size_t>(be_max - be_min + 1);
    std::vector<DesignPoint> flat(n_be * n_fe);
    parallel::parallelFor(n_be * n_fe, [&](std::size_t k) {
        const std::size_t slot = widthSweepSlot(k, n_fe, n_be);
        arch::CoreConfig config = arch::baselineConfig();
        config.fetchWidth = fe_min + static_cast<int>(slot % n_fe);
        config.aluPipes = be_min + static_cast<int>(slot / n_fe) -
                          config.memPipes - config.branchPipes;
        flat[slot] = evaluate(config);
    });

    for (std::size_t row = 0; row < n_be; ++row) {
        auto first = flat.begin() +
                     static_cast<std::ptrdiff_t>(row * n_fe);
        sweep.points.emplace_back(
            std::make_move_iterator(first),
            std::make_move_iterator(first +
                                    static_cast<std::ptrdiff_t>(n_fe)));
    }
    return sweep;
}

std::vector<AluPoint>
ArchExplorer::aluDepthSweep(const std::vector<int> &stages)
{
    // The synthesizer's complex-ALU memo is compute-once, so the
    // stage-count tasks share one ALU build and propagation.
    return parallel::orderedMap<AluPoint>(
        stages.size(), [&](std::size_t i) {
            const auto [period, area] = synth.complexAluTiming(stages[i]);
            AluPoint p;
            p.stages = stages[i];
            p.frequency = period > 0.0 ? 1.0 / period : 0.0;
            p.area = area;
            return p;
        });
}

std::size_t
firstMaximum(const std::vector<double> &values)
{
    if (values.empty())
        fatal("firstMaximum: no values");
    std::size_t best = 0;
    for (std::size_t i = 1; i < values.size(); ++i)
        if (values[i] > values[best])
            best = i;
    return best;
}

DepthOptimum
optimalDepth(const DepthSweep &sweep)
{
    std::vector<double> performance;
    for (const DesignPoint &pt : sweep.points)
        performance.push_back(pt.performance);
    const DesignPoint &best = sweep.points[firstMaximum(performance)];
    return {best.config.totalStages(),
            best.performance / sweep.points[0].performance};
}

std::optional<double>
frequencyGainAt(const DepthSweep &sweep, int stages)
{
    for (const DesignPoint &pt : sweep.points)
        if (pt.config.totalStages() == stages)
            return pt.timing.frequency / sweep.points[0].timing.frequency;
    return std::nullopt;
}

WidthOptimum
optimalWidth(const WidthSweep &sweep)
{
    WidthOptimum best;
    for (const auto &row : sweep.points)
        for (const DesignPoint &pt : row)
            best.maxPerformance =
                std::max(best.maxPerformance, pt.performance);
    for (std::size_t be = 0; be < sweep.points.size(); ++be) {
        for (std::size_t fe = 0; fe < sweep.points[be].size(); ++fe) {
            if (sweep.points[be][fe].performance / best.maxPerformance >=
                0.9999) {
                best.backEnd = sweep.beMin + static_cast<int>(be);
                best.frontEnd = sweep.feMin + static_cast<int>(fe);
            }
        }
    }
    return best;
}

double
backEndChange(const WidthSweep &sweep, int fe)
{
    if (sweep.points.empty() || fe < sweep.feMin || fe > sweep.feMax)
        fatal("backEndChange: front-end width ", fe, " is off the grid");
    const auto col = static_cast<std::size_t>(fe - sweep.feMin);
    return sweep.points.back()[col].performance /
               sweep.points.front()[col].performance -
           1.0;
}

std::optional<int>
frequencyKnee(const std::vector<AluPoint> &points)
{
    for (std::size_t i = 0; i + 1 < points.size(); ++i) {
        const double gain_per_stage =
            (points[i + 1].frequency / points[i].frequency - 1.0) /
            static_cast<double>(points[i + 1].stages - points[i].stages);
        if (gain_per_stage < 0.02)
            return points[i].stages;
    }
    return std::nullopt;
}

} // namespace otft::core
