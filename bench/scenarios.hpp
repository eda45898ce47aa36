/**
 * @file
 * The perf_suite scenario registry: one benchmark scenario per layer
 * of the paper flow (device -> circuit -> cells -> liberty -> netlist
 * -> sta -> workload -> arch -> core), registered into a
 * perf::ScenarioSuite. Kept in a library so the perf_suite binary and
 * the perf_smoke integration test run the identical set.
 */

#ifndef OTFT_BENCH_SCENARIOS_HPP
#define OTFT_BENCH_SCENARIOS_HPP

#include "util/perf_report.hpp"

namespace otft::bench {

/**
 * Register the full scenario set (every flow layer).
 * Fixtures are built lazily in each scenario's setup hook and shared
 * across scenarios, so `--filter` only pays for what it runs.
 */
void registerAllScenarios(perf::ScenarioSuite &suite);

} // namespace otft::bench

#endif // OTFT_BENCH_SCENARIOS_HPP
