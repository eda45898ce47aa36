/**
 * @file
 * The --diag-json breakdown of the solver's registry counters on a
 * real workload: characterizing the inverter with the collector on
 * splits every circuit.* counter across context labels that sum to
 * the registry delta, and with the collector off the registry counts
 * exactly the same events.
 */

#include <map>
#include <string>

#include <gtest/gtest.h>

#include "liberty/characterizer.hpp"
#include "util/diag.hpp"
#include "util/logging.hpp"
#include "util/result_cache.hpp"
#include "util/stats_registry.hpp"

namespace otft::circuit {
namespace {

using Counts = std::map<std::string, std::uint64_t>;

/** circuit.* registry counter deltas of one inverter characterization. */
Counts
characterizeInverter()
{
    liberty::CharacterizerConfig config;
    // The smallest grid an NLDM table takes.
    config.slewAxis = {4e-6, 64e-6};
    config.loadMultipliers = {0.5, 6.0};
    const liberty::Characterizer characterizer(cells::CellFactory{},
                                               config);
    const Counts before = stats::Registry::instance().counterSnapshot();
    characterizer.characterizeCombinational("inv");
    Counts deltas;
    for (const auto &[name, value] :
         stats::Registry::instance().counterSnapshot()) {
        if (name.rfind("circuit.", 0) != 0)
            continue;
        const auto it = before.find(name);
        const std::uint64_t delta =
            value - (it != before.end() ? it->second : 0);
        if (delta != 0)
            deltas[name] = delta;
    }
    return deltas;
}

class DiagBreakdown : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        setQuiet(true);
        // Every run must solve, not replay memoized points.
        cache::ResultCache::instance().setEnabled(false);
        diag::Collector::instance().reset();
    }

    void TearDown() override
    {
        diag::Collector::instance().setEnabled(false);
        diag::Collector::instance().reset();
        cache::ResultCache::instance().setEnabled(true);
    }
};

TEST_F(DiagBreakdown, ContextsSumToTheRegistryAndDiagOffCountsTheSame)
{
    diag::Collector::instance().setEnabled(true);
    const Counts with_diag = characterizeInverter();
    const diag::Collector::Breakdown breakdown =
        diag::Collector::instance().breakdown();
    diag::Collector::instance().setEnabled(false);

    ASSERT_TRUE(breakdown.count("liberty.inv.pin0"));
    Counts summed;
    for (const auto &[context, counts] : breakdown)
        for (const auto &[name, n] : counts)
            summed[name] += n;
    // Every solver counter that moved is broken down, and only those;
    // the LU kernel's circuit.lu.* counters are not solver events.
    Counts expected;
    for (const auto &[name, n] : with_diag)
        if (name.rfind("circuit.lu.", 0) != 0)
            expected[name] = n;
    ASSERT_TRUE(expected.count("circuit.newton.solves"));
    ASSERT_TRUE(expected.count("circuit.transient.steps"));
    EXPECT_EQ(summed, expected);

    diag::Collector::instance().reset();
    const Counts without_diag = characterizeInverter();
    EXPECT_EQ(without_diag, with_diag);
    EXPECT_TRUE(diag::Collector::instance().breakdown().empty());
}

} // namespace
} // namespace otft::circuit
