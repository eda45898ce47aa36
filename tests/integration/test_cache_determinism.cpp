/**
 * @file
 * End-to-end determinism of the content-addressed result cache: a
 * cache-warm run must be byte-identical to the cache-cold run that
 * populated it, a cached run must match a cache-disabled run, and the
 * cache must stay race-free under the parallel fan-out. The explorer's
 * two tiers must do only the work their keys call for: IPC simulated
 * once for every library, timing synthesized once for every
 * instruction count, malformed payloads recomputed. Every double is
 * printed with %.17g, so a single flipped bit fails the compare.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "arch/config.hpp"
#include "core/explorer.hpp"
#include "liberty/characterizer.hpp"
#include "liberty/silicon.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/result_cache.hpp"
#include "util/stats_registry.hpp"

namespace otft {
namespace {

void
append(std::string &out, const char *label, double v)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%s=%.17g\n", label, v);
    out += buffer;
}

void
append(std::string &out, const char *label,
       const std::vector<double> &values)
{
    out += label;
    char buffer[40];
    for (double v : values) {
        std::snprintf(buffer, sizeof(buffer), " %.17g", v);
        out += buffer;
    }
    out += "\n";
}

/** Full-precision text dump of one characterized cell. */
std::string
dumpCell(const liberty::StdCell &cell)
{
    std::string out = "cell " + cell.name + "\n";
    append(out, "area", cell.area);
    append(out, "leakage", cell.leakage);
    append(out, "inputCap", cell.inputCap);
    for (const auto &arc : cell.arcs) {
        out += "arc " + arc.fromPin + "\n";
        for (int sense = 0; sense < 2; ++sense) {
            append(out, "delay.slews", arc.delay[sense].slewAxis());
            append(out, "delay.loads", arc.delay[sense].loadAxis());
            append(out, "delay.values", arc.delay[sense].values());
            append(out, "slew.values",
                   arc.outputSlew[sense].values());
        }
    }
    return out;
}

/** Full-precision text dump of one evaluated design point. */
std::string
dumpPoint(const core::DesignPoint &point)
{
    std::string out;
    out += "point fe=" + std::to_string(point.config.fetchWidth) +
           " alu=" + std::to_string(point.config.aluPipes) + "\n";
    append(out, "clockPeriod", point.timing.clockPeriod);
    append(out, "frequency", point.timing.frequency);
    append(out, "area", point.timing.area);
    append(out, "critical", static_cast<int>(point.timing.critical));
    append(out, "complexAluStages", point.timing.complexAluStages);
    for (const auto &r : point.timing.regions)
        append(out, "region",
               {static_cast<double>(static_cast<int>(r.region)),
                static_cast<double>(r.stages), r.clockPeriod, r.area,
                static_cast<double>(r.cells)});
    append(out, "ipc", point.ipc);
    append(out, "meanIpc", point.meanIpc);
    append(out, "performance", point.performance);
    return out;
}

liberty::CharacterizerConfig
miniGrid()
{
    liberty::CharacterizerConfig mini;
    mini.slewAxis = {4e-6, 64e-6};
    mini.loadMultipliers = {0.5, 6.0};
    return mini;
}

std::string
characterizeInv(const liberty::CharacterizerConfig &cfg, int jobs)
{
    parallel::JobsOverride pin(jobs);
    liberty::Characterizer chr(cells::CellFactory{}, cfg);
    return dumpCell(chr.characterizeCombinational("inv"));
}

/**
 * Contract under test: hits are used as whole results, never as
 * iteration seeds, so the bits a warm run reads back are exactly the
 * bits the cold run computed and stored.
 */
TEST(CacheDeterminism, NldmColdAndWarmRunsAreByteIdentical)
{
    auto &cache = cache::ResultCache::instance();
    cache.clear();
    const liberty::CharacterizerConfig mini = miniGrid();

    stats::Counter &measured = stats::counter("liberty.points.measured");
    stats::Counter &misses = stats::counter("cache.misses");

    // The cache holds what a later lookup can hit: one arc point per
    // (pin, slew, load) of the single-pin inverter, nothing else.
    const std::string cold = characterizeInv(mini, 1);
    EXPECT_EQ(cache.size(),
              mini.slewAxis.size() * mini.loadMultipliers.size());

    // The warm run measures nothing and misses nothing.
    const std::uint64_t measured0 = measured.value();
    const std::uint64_t misses0 = misses.value();
    const std::string warm = characterizeInv(mini, 1);
    EXPECT_EQ(measured.value(), measured0);
    EXPECT_EQ(misses.value(), misses0);

    EXPECT_FALSE(cold.empty());
    EXPECT_EQ(cold, warm);
    cache.clear();
}

TEST(CacheDeterminism, NldmCachedMatchesCacheDisabled)
{
    auto &cache = cache::ResultCache::instance();
    cache.clear();

    const liberty::CharacterizerConfig mini = miniGrid();
    std::string reference;
    {
        cache::EnabledOverride off(false);
        reference = characterizeInv(mini, 1);
    }
    ASSERT_EQ(cache.size(), 0u)
        << "a disabled cache must not be touched";

    const std::string cold = characterizeInv(mini, 1);
    const std::string warm = characterizeInv(mini, 1);
    EXPECT_EQ(reference, cold);
    EXPECT_EQ(reference, warm);
    cache.clear();
}

TEST(CacheDeterminism, NldmParallelJobsMatchSerialColdAndWarm)
{
    auto &cache = cache::ResultCache::instance();
    const liberty::CharacterizerConfig mini = miniGrid();

    cache.clear();
    const std::string serial_cold = characterizeInv(mini, 1);

    // A fresh cache filled under the 8-way fan-out must still read
    // back the same bits: keys are content-addressed and the values
    // stored are the deterministic per-point results.
    cache.clear();
    const std::string parallel_cold = characterizeInv(mini, 8);
    const std::string parallel_warm = characterizeInv(mini, 8);

    EXPECT_EQ(serial_cold, parallel_cold);
    EXPECT_EQ(serial_cold, parallel_warm);
    cache.clear();
}

TEST(CacheDeterminism, ExplorerPointColdAndWarmRunsAreByteIdentical)
{
    auto &cache = cache::ResultCache::instance();
    cache.clear();
    const liberty::CellLibrary silicon =
        liberty::makeSiliconLibrary();

    const auto evaluate = [&silicon] {
        core::ExplorerConfig config;
        config.instructions = 2000;
        core::ArchExplorer explorer(silicon, config);
        return dumpPoint(explorer.evaluate(arch::baselineConfig()));
    };

    const std::string cold = evaluate();
    ASSERT_GT(cache.size(), 0u)
        << "cold evaluation should have populated the cache";
    const std::string warm = evaluate();
    EXPECT_FALSE(cold.empty());
    EXPECT_EQ(cold, warm);

    const std::size_t cached_entries = cache.size();
    {
        cache::EnabledOverride off(false);
        EXPECT_EQ(evaluate(), cold);
    }
    EXPECT_EQ(cache.size(), cached_entries)
        << "a disabled cache must not be touched";
    cache.clear();
}

/** Instructions committed by the core model so far in this process. */
std::uint64_t
simulatedInstructions()
{
    return stats::counter("arch.instructions.simulated").value();
}

/** Design points synthesized (timing-tier misses) so far. */
std::uint64_t
synthesizedPoints()
{
    return stats::accumulator("explorer.point.synth_time").count();
}

core::DesignPoint
evaluateBaseline(const liberty::CellLibrary &library,
                 std::uint64_t instructions, bool use_cache = true)
{
    cache::EnabledOverride enable(use_cache);
    core::ExplorerConfig config;
    config.instructions = instructions;
    core::ArchExplorer explorer(library, config);
    return explorer.evaluate(arch::baselineConfig());
}

std::string
dumpSweep(const core::WidthSweep &sweep)
{
    std::string out;
    for (const auto &row : sweep.points)
        for (const auto &point : row)
            out += dumpPoint(point);
    return out;
}

/** Silicon plus a mini-grid organic library (distinct content hash). */
class ExplorerTiers : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        silicon = new liberty::CellLibrary(liberty::makeSiliconLibrary());
        organic = new liberty::CellLibrary(
            liberty::makeOrganicLibrary(miniGrid()));
    }

    static void
    TearDownTestSuite()
    {
        delete silicon;
        delete organic;
        silicon = organic = nullptr;
    }

    void SetUp() override { cache::ResultCache::instance().clear(); }
    void TearDown() override { cache::ResultCache::instance().clear(); }

    static liberty::CellLibrary *silicon;
    static liberty::CellLibrary *organic;
};

liberty::CellLibrary *ExplorerTiers::silicon = nullptr;
liberty::CellLibrary *ExplorerTiers::organic = nullptr;

TEST_F(ExplorerTiers, OrganicAfterSiliconSimulatesNothing)
{
    const core::DesignPoint si = evaluateBaseline(*silicon, 2000);
    const std::uint64_t before = simulatedInstructions();
    const core::DesignPoint org = evaluateBaseline(*organic, 2000);
    EXPECT_EQ(simulatedInstructions() - before, 0u)
        << "IPC is technology-free; the second library must reuse it";
    ASSERT_EQ(org.ipc.size(), 7u);
    EXPECT_EQ(org.ipc, si.ipc);
    EXPECT_NE(org.timing.frequency, si.timing.frequency);
    EXPECT_EQ(dumpPoint(org),
              dumpPoint(evaluateBaseline(*organic, 2000, false)));
}

TEST_F(ExplorerTiers, TimingReusedAcrossInstructionCounts)
{
    const std::uint64_t synth0 = synthesizedPoints();
    const core::DesignPoint short_run = evaluateBaseline(*silicon, 2000);
    EXPECT_EQ(synthesizedPoints() - synth0, 1u);

    const std::uint64_t synth1 = synthesizedPoints();
    const std::uint64_t sim1 = simulatedInstructions();
    const core::DesignPoint long_run = evaluateBaseline(*silicon, 3000);
    EXPECT_EQ(synthesizedPoints() - synth1, 0u)
        << "timing does not depend on the instruction count";
    EXPECT_GE(simulatedInstructions() - sim1, 7u * 3000u);
    EXPECT_NE(long_run.ipc, short_run.ipc);

    core::DesignPoint timing_only = long_run;
    timing_only.ipc = short_run.ipc;
    timing_only.meanIpc = short_run.meanIpc;
    timing_only.performance = short_run.performance;
    EXPECT_EQ(dumpPoint(timing_only), dumpPoint(short_run));
}

TEST_F(ExplorerTiers, CacheOffSweepsMatchColdAndWarm)
{
    for (const liberty::CellLibrary *library : {silicon, organic}) {
        const auto sweep = [library](bool use_cache) {
            cache::EnabledOverride enable(use_cache);
            core::ExplorerConfig config;
            config.instructions = 2000;
            core::ArchExplorer explorer(*library, config);
            return dumpSweep(explorer.widthSweep(1, 2, 3, 4));
        };
        cache::ResultCache::instance().clear();
        const std::string off = sweep(false);
        EXPECT_EQ(cache::ResultCache::instance().size(), 0u)
            << "a disabled cache must not be touched";
        const std::string cold = sweep(true);
        const std::string warm = sweep(true);
        EXPECT_FALSE(off.empty());
        EXPECT_EQ(off, cold) << library->name();
        EXPECT_EQ(off, warm) << library->name();
    }
}

/**
 * Persist one evaluated point, rewrite the cache file so each tier's
 * payload has the wrong length (IPC one value too many, timing one
 * too few), reload it, and re-evaluate: both halves must be recomputed
 * and the point must match the cold one exactly.
 */
TEST_F(ExplorerTiers, MalformedPayloadsAreRecomputed)
{
    namespace fs = std::filesystem;
    auto &cache = cache::ResultCache::instance();
    const fs::path dir =
        fs::temp_directory_path() / "otft_cache_test_malformed_tiers";
    fs::remove_all(dir);
    cache.setDirectory(dir.string());
    const std::string reference =
        dumpPoint(evaluateBaseline(*silicon, 2000));
    cache.flush();

    const fs::path file = dir / "result_cache.json";
    std::stringstream text;
    text << std::ifstream(file).rdbuf();
    const json::Value doc = json::parse(text.str());
    std::string rewritten =
        "{\"schema\": \"" + doc.string("schema") + "\", \"entries\": {";
    int ipc_entries = 0, timing_entries = 0;
    for (const auto &[key, value] : doc.at("entries").asObject()) {
        std::vector<double> payload;
        for (const json::Value &v : value.asArray())
            payload.push_back(v.asNumber());
        if (key.rfind("explorer.ipc:", 0) == 0) {
            payload.push_back(1.0);
            ++ipc_entries;
        } else if (key.rfind("explorer.timing:", 0) == 0) {
            payload.pop_back();
            ++timing_entries;
        }
        rewritten += (rewritten.back() == '{' ? "\"" : ", \"") + key +
                     "\": [";
        char buffer[40];
        for (std::size_t i = 0; i < payload.size(); ++i) {
            std::snprintf(buffer, sizeof(buffer), "%s%.17g",
                          i ? ", " : "", payload[i]);
            rewritten += buffer;
        }
        rewritten += "]";
    }
    rewritten += "}}\n";
    ASSERT_EQ(ipc_entries, 1);
    ASSERT_EQ(timing_entries, 1);
    std::ofstream(file) << rewritten;

    cache.clear();
    cache.setDirectory(dir.string());
    ASSERT_EQ(cache.size(), 2u) << "the malformed entries should load";
    const std::uint64_t synth0 = synthesizedPoints();
    const std::uint64_t sim0 = simulatedInstructions();
    EXPECT_EQ(dumpPoint(evaluateBaseline(*silicon, 2000)), reference);
    EXPECT_EQ(synthesizedPoints() - synth0, 1u);
    EXPECT_GE(simulatedInstructions() - sim0, 7u * 2000u);

    // The recomputed payloads replaced the malformed ones.
    const std::uint64_t sim1 = simulatedInstructions();
    EXPECT_EQ(dumpPoint(evaluateBaseline(*silicon, 2000)), reference);
    EXPECT_EQ(simulatedInstructions() - sim1, 0u);

    cache.setDirectory("");
    fs::remove_all(dir);
}

} // namespace
} // namespace otft
