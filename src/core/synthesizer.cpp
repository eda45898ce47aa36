#include "core/synthesizer.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/logging.hpp"
#include "util/stats_registry.hpp"
#include "util/trace.hpp"

namespace otft::core {

using arch::CoreConfig;
using arch::Region;

namespace {

/**
 * Broadcast-span coefficient of the wakeup loop floor: its nets route
 * an extra wakeupSpanFactor * sqrt(core area).
 */
constexpr double wakeupSpanFactor = 0.09;

} // namespace

CoreSynthesizer::CoreSynthesizer(const liberty::CellLibrary &library,
                                 sta::StaConfig sta_config)
    : library(library), staConfig_(sta_config),
      engine(library, sta_config), pipeliner(library, sta_config)
{
}

CoreSynthesizer::TimedBlock
CoreSynthesizer::timeBlock(const netlist::Netlist &comb) const
{
    TimedBlock timed;
    timed.netlist = &comb;
    std::vector<double> arrival;
    timed.oneStage = engine.analyze(comb, &arrival);
    timed.delays = pipeliner.combDelays(comb, arrival);
    return timed;
}

sta::StaResult
CoreSynthesizer::analyzeAt(const TimedBlock &block, int stages) const
{
    if (stages == 1)
        return block.oneStage;
    return engine.analyze(
        pipeliner.pipeline(*block.netlist, block.delays, stages).netlist);
}

const CoreSynthesizer::TimedBlock &
CoreSynthesizer::block(Region region, const CoreConfig &config)
{
    return blockCache.get(regionBlockKey(region, config), [&] {
        return timeBlock(regionNetlist(region, config));
    });
}

std::pair<double, double>
CoreSynthesizer::complexAluTiming(int stages)
{
    return aluTimingCache.get(stages, [&] {
        const TimedBlock &alu =
            aluCache.get(0, [&] { return timeBlock(complexAluNetlist()); });
        const sta::StaResult sta = analyzeAt(alu, stages);
        return std::make_pair(sta.minClockPeriod, sta.area);
    });
}

CoreTiming
CoreSynthesizer::synthesize(const CoreConfig &config)
{
    static stats::Counter &stat_calls = stats::counter(
        "synth.cores.synthesized", "core configurations synthesized");
    static stats::Counter &stat_hits = stats::counter(
        "synth.region_cache.hits",
        "region timings served from the cache");
    static stats::Counter &stat_misses = stats::counter(
        "synth.region_cache.misses",
        "region timings computed (pipeline + STA)");
    OTFT_TRACE_SCOPE("synth.core.synthesize");
    ++stat_calls;

    CoreTiming timing;

    static constexpr Region all_regions[] = {
        Region::Fetch,   Region::Decode, Region::Rename,
        Region::Dispatch, Region::Issue, Region::RegRead,
        Region::Execute, Region::Retire,
    };

    for (Region region : all_regions) {
        const int stages = config.stagesIn(region);
        bool computed = false;
        const RegionTiming &rt = timingCache.get(
            {regionBlockKey(region, config), stages},
            [&] {
                OTFT_TRACE_SCOPE("synth.region.time");
                const sta::StaResult sta =
                    analyzeAt(block(region, config), stages);
                RegionTiming value;
                value.region = region;
                value.stages = stages;
                value.clockPeriod = sta.minClockPeriod;
                value.area = sta.area;
                value.cells = sta.cellCount;
                return value;
            },
            &computed);
        ++(computed ? stat_misses : stat_hits);
        timing.regions.push_back(rt);
        timing.area += rt.area;
    }

    // Single-cycle loop floor (Palacharla/Jouppi): the wakeup-select
    // loop must close combinationally regardless of how deep the
    // issue region is cut. Its broadcast nets span the core, so the
    // floor carries a block-span wire term that is significant in
    // silicon and negligible in organic — the paper's "communication
    // between the pipelines" effect (Sec. 5.5).
    {
        sta::StaConfig loop_cfg = staConfig_;
        loop_cfg.registerInputs = false;
        loop_cfg.registerOutputs = false;
        loop_cfg.extraSpanPerNet =
            wakeupSpanFactor * std::sqrt(timing.area);
        const double wakeup_floor =
            sta::StaEngine(library, loop_cfg)
                .analyze(wakeupLoopNetlist(config))
                .minClockPeriod;

        for (RegionTiming &rt : timing.regions)
            if (rt.region == Region::Issue)
                rt.clockPeriod = std::max(rt.clockPeriod, wakeup_floor);
    }

    for (const RegionTiming &rt : timing.regions) {
        if (rt.clockPeriod > timing.clockPeriod) {
            timing.clockPeriod = rt.clockPeriod;
            timing.critical = rt.region;
        }
    }

    // Storage structures as DFF arrays.
    const liberty::StdCell &dff = library.cell("dff");
    timing.area +=
        static_cast<double>(storageBits(config)) * dff.area;

    // Complex ALU: pipeline just deep enough to meet the core clock
    // (stallable DesignWare-style unit; it never sets the clock).
    // Start from a period-ratio estimate and grow until the unit
    // meets the core clock.
    {
        const double comb_period = complexAluTiming(1).first;
        int stages = std::max(
            1, static_cast<int>(comb_period / timing.clockPeriod));
        std::pair<double, double> result = complexAluTiming(stages);
        while (result.first > timing.clockPeriod && stages < 48)
            result = complexAluTiming(++stages);
        timing.complexAluStages = stages;
        timing.area += result.second;
    }

    timing.frequency =
        timing.clockPeriod > 0.0 ? 1.0 / timing.clockPeriod : 0.0;
    return timing;
}

CoreConfig
CoreSynthesizer::deepen(const CoreConfig &config)
{
    const CoreTiming timing = synthesize(config);
    CoreConfig deeper = config;
    ++deeper.stagesIn(timing.critical);
    return deeper;
}

} // namespace otft::core
