#include "scenarios.hpp"

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "arch/config.hpp"
#include "arch/core.hpp"
#include "arch/front_end.hpp"
#include "cells/topologies.hpp"
#include "cells/vtc.hpp"
#include "circuit/dc.hpp"
#include "circuit/linear_solver.hpp"
#include "circuit/transient.hpp"
#include "core/explorer.hpp"
#include "device/fitting.hpp"
#include "device/measurement.hpp"
#include "device/pentacene.hpp"
#include "liberty/characterizer.hpp"
#include "liberty/silicon.hpp"
#include "netlist/bufferize.hpp"
#include "netlist/generators.hpp"
#include "netlist/netlist.hpp"
#include "sta/pipeline.hpp"
#include "sta/sta.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "util/result_cache.hpp"
#include "util/rng.hpp"
#include "util/stats_registry.hpp"
#include "workload/trace.hpp"

namespace otft::bench {

namespace {

/**
 * Shared lazy fixtures. Each scenario's setup hook materializes only
 * what it needs, so a filtered run never pays for the rest; fixture
 * construction happens outside the timed region by contract
 * (ScenarioSuite calls setup before the warmup reps).
 */
struct Fixtures
{
    std::optional<cells::CellFactory> factory;
    std::optional<liberty::CellLibrary> silicon;
    /** 16x16 array multiplier, fanout-buffered (the Fig. 12 ALU). */
    std::optional<netlist::Netlist> alu16;
    std::optional<cells::BuiltCell> vtcInverter;
    std::optional<cells::BuiltCell> loadedInverter;
    std::optional<std::vector<device::TransferCurve>> curves;
    /** Seeded diagonally dominant systems (n = 8, 16, 32) and RHS. */
    std::vector<circuit::Matrix> luSystems;
    std::vector<std::vector<double>> luRhs;
    /** Pre-expanded front-end streams by workload name (seed 11). */
    std::map<std::string, std::unique_ptr<arch::FrontEndStream>> streams;

    cells::CellFactory &
    getFactory()
    {
        if (!factory)
            factory.emplace();
        return *factory;
    }

    liberty::CellLibrary &
    getSilicon()
    {
        if (!silicon)
            silicon.emplace(liberty::makeSiliconLibrary());
        return *silicon;
    }

    netlist::Netlist &
    getAlu16()
    {
        if (!alu16) {
            netlist::Netlist raw;
            netlist::NetBuilder b(raw);
            const auto x = b.inputBus("a", 16);
            const auto y = b.inputBus("y", 16);
            b.outputBus("p", netlist::arrayMultiplier(b, x, y));
            alu16.emplace(netlist::bufferize(raw, 6));
        }
        return *alu16;
    }

    /**
     * The baseline-predictor front-end stream of `workload` at seed
     * 11, with every chunk a 30k + 3k instruction run reads (plus a
     * ROB of look-ahead) already generated and predicted.
     */
    arch::FrontEndStream &
    getStream(const std::string &workload)
    {
        std::unique_ptr<arch::FrontEndStream> &stream = streams[workload];
        if (!stream) {
            stream = std::make_unique<arch::FrontEndStream>(
                workload::profileByName(workload), 11,
                arch::baselineConfig().predictorBits);
            constexpr std::size_t chunk = arch::FrontEndStream::chunkInsts;
            for (std::size_t i = 0; i * chunk < 33000 + chunk; ++i)
                (void)stream->chunk(i);
        }
        return *stream;
    }
};

Fixtures &
fixtures()
{
    static Fixtures f;
    return f;
}

/** The reduced 2x2 NLDM grid (the floor) used by fast paths. */
liberty::CharacterizerConfig
miniGrid()
{
    liberty::CharacterizerConfig mini;
    mini.slewAxis = {4e-6, 64e-6};
    mini.loadMultipliers = {0.5, 6.0};
    return mini;
}

void
addDeviceFit(perf::ScenarioSuite &suite)
{
    suite.add({
        "device.model_fit",
        "device",
        "Nelder-Mead level-1 fit of the measured pentacene transfer "
        "curve at |VDS| = 1 V",
        [] {
            auto &f = fixtures();
            if (!f.curves)
                f.curves.emplace(device::measurePentaceneFig3());
        },
        []() -> std::uint64_t {
            const auto &curve = fixtures().curves->front();
            device::ModelFitter fitter(device::Polarity::PType,
                                       device::pentaceneGeometry());
            const auto fit = fitter.fitLevel1(curve);
            (void)fit;
            return curve.vgs.size();
        },
    });
}

/**
 * The level-61 FET evaluation alone, the kernel under every Jacobian
 * build: the golden p-type pentacene device over a 61 x 61 grid of
 * (VGS, VDS) in [-15, 15] V, which spans cutoff, deep subthreshold,
 * both saturation frames and source/drain exchange. Each point takes
 * one evaluate() (current, gm, gds) and one drainCurrent() (a chord
 * iteration's call).
 */
void
addLevel61Evaluate(perf::ScenarioSuite &suite)
{
    constexpr int steps = 61;
    // One pass is ~7.4k evaluations (~1 ms); eight keep a rep well
    // above the diff's 20 us floor.
    constexpr int rounds = 8;
    suite.add({
        "device.level61_evaluate",
        "device",
        "level-61 evaluate() + drainCurrent() of the golden pentacene "
        "device over a 61 x 61 VGS x VDS grid in [-15, 15] V",
        [] {},
        []() -> std::uint64_t {
            // The model has no counter of its own (one would cost an
            // atomic per evaluation), so the scenario counts its calls.
            static stats::Counter &stat_evals = stats::counter(
                "device.level61.bench_evaluations",
                "level-61 evaluations made by the perf scenario");
            const auto model = device::makePentaceneGolden();
            double sink = 0.0;
            std::uint64_t points = 0;
            for (int round = 0; round < rounds; ++round) {
                for (int i = 0; i < steps; ++i) {
                    const double vgs = -15.0 + 0.5 * i;
                    for (int j = 0; j < steps; ++j) {
                        const double vds = -15.0 + 0.5 * j;
                        const auto e = model->evaluate(vgs, vds);
                        sink += e.id + e.gm + e.gds +
                                model->drainCurrent(vgs, vds);
                        ++points;
                    }
                }
            }
            // Keep the evaluations observable.
            if (!std::isfinite(sink))
                fatal("device.level61_evaluate: non-finite result");
            stat_evals += 2 * points;
            return points;
        },
    });
}

void
addDcOperatingPoint(perf::ScenarioSuite &suite)
{
    suite.add({
        "circuit.dc_operating_point",
        "circuit",
        "cold Newton + homotopy operating points of the pseudo-E "
        "inverter, NAND2, and NOR2",
        [] { fixtures().getFactory(); },
        []() -> std::uint64_t {
            auto &factory = fixtures().getFactory();
            std::uint64_t solves = 0;
            cells::BuiltCell cellset[3] = {
                factory.inverter(cells::InverterKind::PseudoE),
                factory.nand(2),
                factory.nor(2),
            };
            for (auto &cell : cellset) {
                circuit::DcAnalysis dc(cell.ckt);
                for (int k = 0; k < 4; ++k) {
                    (void)dc.operatingPoint();
                    ++solves;
                }
            }
            return solves;
        },
    });
}

/**
 * Dense LU factor + solve in isolation, the kernel under every Newton
 * step: eight seeded, diagonally dominant systems at each of n = 8,
 * 16 and 32.
 */
void
addLuFactorSolve(perf::ScenarioSuite &suite)
{
    constexpr std::size_t systemsPerSize = 8;
    // One pass over the 24 systems takes ~0.1 ms; 50 passes keep a
    // rep in the milliseconds, well above the diff's 20 us floor.
    constexpr int rounds = 50;
    suite.add({
        "circuit.lu_factor_solve",
        "circuit",
        "dense partial-pivot LU factor + solve of eight seeded "
        "diagonally dominant systems each at n = 8, 16 and 32",
        [] {
            auto &f = fixtures();
            if (!f.luSystems.empty())
                return;
            Rng rng(42);
            for (const std::size_t n : {8u, 16u, 32u}) {
                for (std::size_t k = 0; k < systemsPerSize; ++k) {
                    circuit::Matrix a(n);
                    std::vector<double> b(n);
                    for (std::size_t r = 0; r < n; ++r) {
                        for (std::size_t c = 0; c < n; ++c)
                            a.at(r, c) =
                                rng.uniform(-1.0, 1.0) +
                                (r == c ? static_cast<double>(n) : 0.0);
                        b[r] = rng.uniform(-5.0, 5.0);
                    }
                    f.luSystems.push_back(std::move(a));
                    f.luRhs.push_back(std::move(b));
                }
            }
        },
        []() -> std::uint64_t {
            const auto &f = fixtures();
            circuit::LuFactors lu;
            std::vector<double> b;
            std::uint64_t solves = 0;
            for (int round = 0; round < rounds; ++round) {
                for (std::size_t k = 0; k < f.luSystems.size(); ++k) {
                    (void)lu.factor(f.luSystems[k]);
                    b = f.luRhs[k];
                    lu.solve(b);
                    ++solves;
                }
            }
            return solves;
        },
    });
}

void
addTransientStep(perf::ScenarioSuite &suite)
{
    suite.add({
        "circuit.transient_step",
        "circuit",
        "backward-Euler transient of a loaded pseudo-E inverter "
        "through one input pulse",
        [] {
            auto &f = fixtures();
            if (!f.loadedInverter) {
                auto &factory = f.getFactory();
                f.loadedInverter.emplace(factory.inverter(
                    cells::InverterKind::PseudoE,
                    4.0 * factory.inputCap()));
                auto &cell = *f.loadedInverter;
                cell.ckt.setSourceWave(
                    cell.inputSources[0],
                    circuit::Pwl::pulse(0.0, cell.supply.vdd, 20e-6,
                                        4e-6, 60e-6));
            }
        },
        []() -> std::uint64_t {
            auto &cell = *fixtures().loadedInverter;
            circuit::TransientConfig config;
            config.tStop = 160e-6;
            config.dt = 0.5e-6;
            const auto result =
                circuit::TransientAnalysis(cell.ckt).run(config);
            return result.time().size();
        },
    });
}

/**
 * The adaptive/fixed stepping pair on the identical circuit and
 * stimulus; the ratio of the two medians is the headline win of LTE
 * step control on a settle-dominated waveform.
 */
void
addTransientModes(perf::ScenarioSuite &suite)
{
    const auto setup = [] {
        auto &f = fixtures();
        if (!f.loadedInverter) {
            auto &factory = f.getFactory();
            f.loadedInverter.emplace(factory.inverter(
                cells::InverterKind::PseudoE,
                4.0 * factory.inputCap()));
            auto &cell = *f.loadedInverter;
            cell.ckt.setSourceWave(
                cell.inputSources[0],
                circuit::Pwl::pulse(0.0, cell.supply.vdd, 20e-6, 4e-6,
                                    60e-6));
        }
    };
    const auto body = [](bool fixed) -> std::uint64_t {
        auto &cell = *fixtures().loadedInverter;
        circuit::TransientConfig config;
        config.tStop = 160e-6;
        config.dt = 0.5e-6;
        config.fixedStep = fixed;
        const auto result =
            circuit::TransientAnalysis(cell.ckt).run(config);
        return result.time().size();
    };
    suite.add({
        "circuit.transient_adaptive",
        "circuit",
        "LTE-controlled adaptive transient of the loaded pseudo-E "
        "inverter pulse (default engine)",
        setup,
        [body]() -> std::uint64_t { return body(false); },
    });
    suite.add({
        "circuit.transient_fixed",
        "circuit",
        "the same inverter pulse on the historical fixed 0.5 us grid",
        setup,
        [body]() -> std::uint64_t { return body(true); },
    });
}

void
addVtcSweep(perf::ScenarioSuite &suite)
{
    suite.add({
        "cells.vtc_sweep",
        "cells",
        "101-point warm-started VTC sweep with threshold, gain, and "
        "noise-margin extraction",
        [] {
            auto &f = fixtures();
            if (!f.vtcInverter)
                f.vtcInverter.emplace(f.getFactory().inverter(
                    cells::InverterKind::PseudoE));
        },
        []() -> std::uint64_t {
            const auto vtc = cells::VtcAnalyzer(101).analyze(
                *fixtures().vtcInverter);
            return vtc.vin.size();
        },
    });
}

void
addNldmCharacterize(perf::ScenarioSuite &suite)
{
    suite.add({
        "liberty.nldm_characterize",
        "liberty",
        "transistor-level NLDM characterization of the pseudo-E "
        "inverter on the minimal 2x2 slew/load grid",
        [] { fixtures().getFactory(); },
        []() -> std::uint64_t {
            // Pinned serial so this trajectory stays comparable with
            // reports recorded before the parallel layer landed; the
            // _par variant below measures the threaded path. The
            // result cache is cleared every rep so the scenario keeps
            // measuring real transient work (nldm_cached_resweep
            // measures the memoized path).
            cache::ResultCache::instance().clear();
            parallel::JobsOverride pin(1);
            liberty::Characterizer chr(fixtures().getFactory(),
                                       miniGrid());
            const auto cell = chr.characterizeCombinational("inv");
            (void)cell;
            const auto &grid = miniGrid();
            return grid.slewAxis.size() * grid.loadMultipliers.size();
        },
    });
    suite.add({
        "liberty.nldm_characterize_par",
        "liberty",
        "the nldm_characterize workload fanned out across all "
        "hardware threads (one task per slew/load grid point)",
        [] { fixtures().getFactory(); },
        []() -> std::uint64_t {
            cache::ResultCache::instance().clear();
            parallel::JobsOverride pin(parallel::hardwareJobs());
            liberty::Characterizer chr(fixtures().getFactory(),
                                       miniGrid());
            const auto cell = chr.characterizeCombinational("inv");
            (void)cell;
            const auto &grid = miniGrid();
            return grid.slewAxis.size() * grid.loadMultipliers.size();
        },
    });
    suite.add({
        "liberty.nldm_cached_resweep",
        "liberty",
        "re-characterization of the inverter with every arc point "
        "served from the warm result cache",
        [] {
            // Warm the cache with one cold characterization; the
            // timed body then re-sweeps the identical grid.
            cache::ResultCache::instance().clear();
            parallel::JobsOverride pin(1);
            liberty::Characterizer chr(fixtures().getFactory(),
                                       miniGrid());
            (void)chr.characterizeCombinational("inv");
        },
        []() -> std::uint64_t {
            parallel::JobsOverride pin(1);
            liberty::Characterizer chr(fixtures().getFactory(),
                                       miniGrid());
            const auto cell = chr.characterizeCombinational("inv");
            (void)cell;
            const auto &grid = miniGrid();
            return grid.slewAxis.size() * grid.loadMultipliers.size();
        },
    });
}

/**
 * The nominal DFF on the library's default load axis: the clk->Q load
 * sweep and the setup bisection at fanout-1 load, one transient per
 * probe. The flop never reads the result cache, so no clear is needed.
 */
void
addFlopCharacterize(perf::ScenarioSuite &suite)
{
    suite.add({
        "liberty.flop_characterize",
        "liberty",
        "DFF characterization of the golden device: clk->Q over the "
        "four default loads plus the setup-time bisection",
        [] { fixtures().getFactory(); },
        []() -> std::uint64_t {
            liberty::Characterizer chr(fixtures().getFactory());
            const auto cell = chr.characterizeFlop();
            (void)cell;
            // One clk->Q point per load, plus the setup time.
            return chr.config().loadMultipliers.size() + 1;
        },
    });
}

void
addNetlistGenerate(perf::ScenarioSuite &suite)
{
    suite.add({
        "netlist.generate_bufferize",
        "netlist",
        "8x8 array multiplier generation plus max-fanout-6 buffer-tree "
        "insertion",
        [] {},
        []() -> std::uint64_t {
            netlist::Netlist raw;
            netlist::NetBuilder b(raw);
            const auto x = b.inputBus("a", 8);
            const auto y = b.inputBus("y", 8);
            b.outputBus("p", netlist::arrayMultiplier(b, x, y));
            return netlist::bufferize(raw, 6).numGates();
        },
    });
}

void
addStaPipeline(perf::ScenarioSuite &suite)
{
    suite.add({
        "sta.pipeline_cut_analyze",
        "sta",
        "8-stage pipeline cut of the buffered 16x16 multiplier plus "
        "full STA on the silicon library",
        [] {
            fixtures().getSilicon();
            fixtures().getAlu16();
        },
        []() -> std::uint64_t {
            auto &f = fixtures();
            const auto cut =
                sta::Pipeliner(f.getSilicon()).pipeline(f.getAlu16(), 8);
            const auto timing =
                sta::StaEngine(f.getSilicon()).analyze(cut.netlist);
            (void)timing;
            return cut.netlist.numGates();
        },
    });
}

void
addWorkloadTrace(perf::ScenarioSuite &suite)
{
    suite.add({
        "workload.trace_generation",
        "workload",
        "200k-instruction synthetic mcf trace (branch/dependency/"
        "locality models)",
        [] {},
        []() -> std::uint64_t {
            constexpr std::uint64_t count = 200000;
            workload::TraceGenerator gen(
                workload::profileByName("mcf"), 11);
            std::uint64_t taken = 0;
            for (std::uint64_t i = 0; i < count; ++i)
                taken += gen.next().taken ? 1 : 0;
            // Consume `taken` so the loop cannot be elided.
            return count + (taken & 1);
        },
    });
}

void
addCoreSimulation(perf::ScenarioSuite &suite)
{
    suite.add({
        "arch.core_simulation",
        "arch",
        "cycle-level baseline-core simulation of 30k dhrystone "
        "instructions after 3k warmup, read from a pre-expanded "
        "front-end stream (trace generation and gshare untimed, as in "
        "the figures)",
        [] { fixtures().getStream("dhrystone"); },
        []() -> std::uint64_t {
            arch::CoreModel model(arch::baselineConfig(),
                                  fixtures().getStream("dhrystone"));
            return model.run(30000, 3000).instructions;
        },
    });
    // Dhrystone on the baseline core rarely fills its ROB; the widest
    // fig13 core on mcf keeps the ROB and issue queue full of
    // long-latency misses, so the per-cycle issue/complete cost shows.
    suite.add({
        "arch.core_simulation_wide",
        "arch",
        "cycle-level simulation of the widest fig13 core (fe 6 / alu 5) "
        "on 30k mcf instructions after 3k warmup, read from a "
        "pre-expanded front-end stream",
        [] { fixtures().getStream("mcf"); },
        []() -> std::uint64_t {
            arch::CoreConfig config = arch::baselineConfig();
            config.fetchWidth = 6;
            config.aluPipes = 5;
            arch::CoreModel model(config, fixtures().getStream("mcf"));
            return model.run(30000, 3000).instructions;
        },
    });
}

void
addExplorerPoint(perf::ScenarioSuite &suite)
{
    suite.add({
        "core.explorer_point",
        "core",
        "end-to-end design-point evaluation (synthesis + STA + IPC) "
        "of the baseline core on the silicon library; the process-wide "
        "result cache and block netlists stay warm across reps, as "
        "they do in a sweep",
        [] { fixtures().getSilicon(); },
        []() -> std::uint64_t {
            // Pinned serial for trajectory continuity (see
            // liberty.nldm_characterize).
            parallel::JobsOverride pin(1);
            core::ExplorerConfig config;
            config.instructions = 3000;
            core::ArchExplorer explorer(fixtures().getSilicon(),
                                        config);
            (void)explorer.evaluate(arch::baselineConfig());
            return config.instructions;
        },
    });
}

/**
 * The seven-workload IPC fan-out as a serial/parallel pair; the ratio
 * of the two medians is the headline speedup of the parallel layer on
 * this machine.
 */
void
addIpcFanout(perf::ScenarioSuite &suite)
{
    const auto body = [](int jobs_count) -> std::uint64_t {
        parallel::JobsOverride pin(jobs_count);
        core::ExplorerConfig config;
        config.instructions = 5000;
        core::ArchExplorer explorer(fixtures().getSilicon(), config);
        const auto ipc = explorer.measureIpc(arch::baselineConfig());
        return config.instructions * ipc.size();
    };
    suite.add({
        "core.ipc_fanout_serial",
        "core",
        "seven-workload IPC simulation of the baseline core, pinned "
        "to one worker",
        [] { fixtures().getSilicon(); },
        [body]() -> std::uint64_t { return body(1); },
    });
    suite.add({
        "core.ipc_fanout_parallel",
        "core",
        "seven-workload IPC simulation of the baseline core across "
        "all hardware threads",
        [] { fixtures().getSilicon(); },
        [body]() -> std::uint64_t {
            return body(parallel::hardwareJobs());
        },
    });
}

/**
 * A reduced width-sweep grid as a serial/parallel pair; exercises
 * ArchExplorer::widthSweep with every point synthesizing through the
 * explorer's one shared synthesizer. Each explorer is fresh per rep,
 * so its block timings start cold, but the block netlists come from
 * the process-wide table (core/blocks.hpp), which is warm after the
 * first rep: a rep times STA, pipelining and IPC, not block builds.
 * netlist.generate_bufferize is the scenario that still times a cold
 * build.
 */
void
addExplorerSweep(perf::ScenarioSuite &suite)
{
    const auto body = [](int jobs_count) -> std::uint64_t {
        // Cleared per rep: the scenario exists to compare serial vs
        // parallel evaluation, so every rep must do real work.
        cache::ResultCache::instance().clear();
        parallel::JobsOverride pin(jobs_count);
        core::ExplorerConfig config;
        config.instructions = 2000;
        core::ArchExplorer explorer(fixtures().getSilicon(), config);
        const auto sweep = explorer.widthSweep(1, 2, 3, 4);
        return sweep.points.size() * sweep.points.front().size();
    };
    suite.add({
        "core.explorer_sweep_serial",
        "core",
        "2x2 width-sweep grid (STA + pipelining of the process-wide "
        "block netlists + IPC per point), pinned to one worker",
        [] { fixtures().getSilicon(); },
        [body]() -> std::uint64_t { return body(1); },
    });
    suite.add({
        "core.explorer_sweep_parallel",
        "core",
        "2x2 width-sweep grid (STA + pipelining of the process-wide "
        "block netlists + IPC per point) across all hardware threads",
        [] { fixtures().getSilicon(); },
        [body]() -> std::uint64_t {
            return body(parallel::hardwareJobs());
        },
    });
}

/**
 * This process's own scratch directory, removed when the process ends,
 * so concurrent suites never share or delete each other's files.
 */
struct ProcessTempDir
{
    ProcessTempDir() = default;
    ProcessTempDir(const ProcessTempDir &) = delete;
    ProcessTempDir &operator=(const ProcessTempDir &) = delete;
    ~ProcessTempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }

    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("otft_perf_result_cache_reload." + std::to_string(::getpid())))
            .string();
};

/**
 * A warm figure re-run's cache I/O: drop the in-memory cache, reload
 * a persisted ~120-entry file shaped like the fig13+fig14 one (60
 * `explorer.timing` payloads of 46 values, 60 `explorer.ipc` payloads
 * of 7), hit every entry, and flush (a no-op: nothing changed). The
 * run leaves the process-wide cache memory-only.
 */
void
addResultCacheReload(perf::ScenarioSuite &suite)
{
    static std::vector<std::pair<std::string, std::uint64_t>> keys;
    static const ProcessTempDir scratch;
    static const std::string &dir = scratch.path;
    suite.add({
        "util.result_cache_reload",
        "util",
        "warm re-run cache I/O: clear, load a ~120-entry fig13+fig14 "
        "shaped result_cache.json, hit every entry, flush",
        [] {
            cache::ResultCache &c = cache::ResultCache::instance();
            c.setDirectory("");
            c.clear();
            keys.clear();
            const auto store = [&](const char *domain, int i,
                                   std::vector<double> values) {
                const std::uint64_t key =
                    cache::KeyHasher().add(domain).add(i).digest();
                keys.emplace_back(domain, key);
                c.store(domain, key, std::move(values));
            };
            Rng rng(13);
            for (int i = 0; i < 60; ++i) {
                // Timing payloads mix delays with integer counts.
                std::vector<double> timing;
                for (int v = 0; v < 46; ++v)
                    timing.push_back(v % 5 < 2 ? rng.uniform(1e-5, 1e-2)
                                               : rng.uniformInt(30000));
                std::vector<double> ipc;
                for (int v = 0; v < 7; ++v)
                    ipc.push_back(rng.uniform(0.05, 1.5));
                store("explorer.timing", i, std::move(timing));
                store("explorer.ipc", i, std::move(ipc));
            }
            std::filesystem::remove_all(dir);
            c.setDirectory(dir);
            c.flush();
            c.setDirectory("");
        },
        []() -> std::uint64_t {
            cache::ResultCache &c = cache::ResultCache::instance();
            c.clear();
            c.setDirectory(dir);
            std::vector<double> out;
            std::uint64_t hits = 0;
            for (const auto &[domain, key] : keys)
                hits += c.lookup(domain, key, out);
            c.flush();
            c.setDirectory("");
            return hits;
        },
    });
}

} // namespace

void
registerAllScenarios(perf::ScenarioSuite &suite)
{
    addDeviceFit(suite);
    addLevel61Evaluate(suite);
    addDcOperatingPoint(suite);
    addLuFactorSolve(suite);
    addTransientStep(suite);
    addTransientModes(suite);
    addVtcSweep(suite);
    addNldmCharacterize(suite);
    addFlopCharacterize(suite);
    addNetlistGenerate(suite);
    addStaPipeline(suite);
    addWorkloadTrace(suite);
    addCoreSimulation(suite);
    addExplorerPoint(suite);
    addIpcFanout(suite);
    addExplorerSweep(suite);
    addResultCacheReload(suite);
}

} // namespace otft::bench
