/**
 * @file
 * google-benchmark kernels over the framework's hot loops: DC solve,
 * transient step, NLDM lookup, netlist generation, pipelining, STA,
 * trace generation, and the cycle-level core model.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "arch/core.hpp"
#include "cells/topologies.hpp"
#include "circuit/dc.hpp"
#include "circuit/linear_solver.hpp"
#include "circuit/transient.hpp"
#include "core/blocks.hpp"
#include "liberty/silicon.hpp"
#include "netlist/bufferize.hpp"
#include "netlist/generators.hpp"
#include "sta/pipeline.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/stats_registry.hpp"

using namespace otft;

namespace {

void
BM_DcOperatingPoint(benchmark::State &state)
{
    setQuiet(true);
    cells::CellFactory factory;
    auto cell = factory.inverter(cells::InverterKind::PseudoE);
    for (auto _ : state) {
        circuit::DcAnalysis dc(cell.ckt);
        benchmark::DoNotOptimize(dc.operatingPoint());
    }
}
BENCHMARK(BM_DcOperatingPoint);

constexpr std::size_t kLuSystems = 8;

/** Deterministic diagonally-dominant systems for the LU kernel. */
void
fillLuSystems(std::size_t n, std::vector<circuit::Matrix> &systems,
              std::vector<std::vector<double>> &rhs)
{
    Rng rng(42);
    systems.assign(kLuSystems, circuit::Matrix(n));
    rhs.assign(kLuSystems, std::vector<double>(n, 0.0));
    for (std::size_t k = 0; k < kLuSystems; ++k) {
        for (std::size_t r = 0; r < n; ++r) {
            for (std::size_t c = 0; c < n; ++c)
                systems[k].at(r, c) =
                    rng.uniform(-1.0, 1.0) +
                    (r == c ? static_cast<double>(n) : 0.0);
            rhs[k][r] = rng.uniform(-5.0, 5.0);
        }
    }
}

void
BM_ScalarLuFactorSolve(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<circuit::Matrix> systems;
    std::vector<std::vector<double>> rhs;
    fillLuSystems(n, systems, rhs);
    std::vector<double> b(n);
    for (auto _ : state) {
        for (std::size_t k = 0; k < kLuSystems; ++k) {
            circuit::LuFactors lu;
            benchmark::DoNotOptimize(lu.factor(systems[k]));
            b = rhs[k];
            lu.solve(b);
            benchmark::DoNotOptimize(b.data());
        }
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(kLuSystems));
}
BENCHMARK(BM_ScalarLuFactorSolve)->Arg(8)->Arg(16)->Arg(32);

void
BM_VtcSweep(benchmark::State &state)
{
    setQuiet(true);
    cells::CellFactory factory;
    auto cell = factory.inverter(cells::InverterKind::PseudoE);
    circuit::DcAnalysis dc(cell.ckt);
    std::vector<double> values;
    for (int i = 0; i < 61; ++i)
        values.push_back(5.0 * i / 60.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            dc.sweepSource(cell.inputSources[0], values));
}
BENCHMARK(BM_VtcSweep);

void
BM_TransientInverter(benchmark::State &state)
{
    setQuiet(true);
    cells::CellFactory factory;
    auto cell = factory.inverter(cells::InverterKind::PseudoE,
                                 factory.inputCap());
    cell.ckt.setSourceWave(cell.inputSources[0],
                           circuit::Pwl::pulse(0.0, 5.0, 50e-6, 10e-6,
                                               300e-6));
    circuit::TransientConfig config;
    config.dt = 1e-6;
    config.tStop = 800e-6;
    for (auto _ : state) {
        circuit::TransientAnalysis tran(cell.ckt);
        benchmark::DoNotOptimize(tran.run(config));
    }
}
BENCHMARK(BM_TransientInverter);

void
BM_BuildMultiplier32(benchmark::State &state)
{
    for (auto _ : state) {
        netlist::Netlist nl;
        netlist::NetBuilder b(nl);
        auto a = b.inputBus("a", 32);
        auto y = b.inputBus("y", 32);
        benchmark::DoNotOptimize(netlist::arrayMultiplier(b, a, y));
    }
}
BENCHMARK(BM_BuildMultiplier32);

void
BM_StaComplexAlu(benchmark::State &state)
{
    const auto library = liberty::makeSiliconLibrary();
    const auto alu = netlist::bufferize(core::buildComplexAlu(), 6);
    sta::StaEngine engine(library);
    for (auto _ : state)
        benchmark::DoNotOptimize(engine.analyze(alu));
}
BENCHMARK(BM_StaComplexAlu);

void
BM_PipelineComplexAlu(benchmark::State &state)
{
    const auto library = liberty::makeSiliconLibrary();
    const auto alu = netlist::bufferize(core::buildComplexAlu(), 6);
    sta::Pipeliner pipeliner(library);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            pipeliner.pipeline(alu, static_cast<int>(state.range(0))));
}
BENCHMARK(BM_PipelineComplexAlu)->Arg(4)->Arg(16);

void
BM_TraceGeneration(benchmark::State &state)
{
    auto profile = workload::profileByName("gzip");
    workload::TraceGenerator gen(profile, 7);
    for (auto _ : state)
        benchmark::DoNotOptimize(gen.next());
}
BENCHMARK(BM_TraceGeneration);

void
BM_CoreModel10k(benchmark::State &state)
{
    auto profile = workload::profileByName("gzip");
    for (auto _ : state) {
        workload::TraceGenerator gen(profile, 7);
        arch::CoreConfig config;
        config.fetchWidth = 2;
        config.aluPipes = 2;
        arch::CoreModel core(config, gen);
        benchmark::DoNotOptimize(core.run(10000, 1000));
    }
}
BENCHMARK(BM_CoreModel10k);

} // namespace

int
main(int argc, char **argv)
{
    // Timings here gauge the framework's raw kernel cost, so stats
    // and tracing stay off unless explicitly requested.
    if (std::getenv("OTFT_STATS") == nullptr)
        stats::Registry::instance().setEnabled(false);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
