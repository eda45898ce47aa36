/**
 * @file
 * Exact circuit solver counters under parallelism. Characterizing a
 * cell splits its grid points across the worker pool, and each point
 * is the same transient at any job count, so every circuit.* count a
 * characterization adds must not depend on how many workers added it.
 * Built into test_concurrency so the TSan lane (`ctest -L
 * concurrency`) covers workers updating the shared registry nodes.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "liberty/characterizer.hpp"
#include "util/parallel.hpp"
#include "util/result_cache.hpp"
#include "util/stats_registry.hpp"

namespace otft::circuit {
namespace {

using Counts = std::map<std::string, std::uint64_t>;

const char *const countedNames[] = {
    "circuit.newton.solves",   "circuit.newton.iterations",
    "circuit.lu.factorizations", "circuit.lu.solves",
    "circuit.transient.steps",
};

Counts
readCounts()
{
    Counts counts;
    for (const char *name : countedNames)
        counts[name] = stats::counter(name).value();
    return counts;
}

/** circuit.* count deltas of one inverter characterization at `jobs`. */
Counts
characterizeInverter(int jobs)
{
    // Every run must solve, not replay the points a previous run
    // stored.
    cache::ResultCache::instance().clear();
    parallel::JobsOverride pin(jobs);
    liberty::CharacterizerConfig config;
    // The smallest grid an NLDM table takes: four parallel points.
    config.slewAxis = {4e-6, 64e-6};
    config.loadMultipliers = {0.5, 6.0};
    const liberty::Characterizer characterizer(cells::CellFactory{},
                                               config);
    const Counts before = readCounts();
    characterizer.characterizeCombinational("inv");
    Counts deltas = readCounts();
    for (auto &[name, value] : deltas)
        value -= before.at(name);
    return deltas;
}

TEST(CircuitCounts, ParallelCharacterizationCountsEqualSerial)
{
    const Counts parallel_counts = characterizeInverter(4);
    const Counts serial_counts = characterizeInverter(1);
    for (const char *name : countedNames) {
        EXPECT_GT(serial_counts.at(name), 0u) << name;
        EXPECT_EQ(parallel_counts.at(name), serial_counts.at(name))
            << name;
    }
}

} // namespace
} // namespace otft::circuit
