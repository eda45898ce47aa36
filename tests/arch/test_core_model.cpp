/** @file Tests for the cycle-level out-of-order core model. */

#include <gtest/gtest.h>

#include <algorithm>

#include "arch/core.hpp"
#include "util/logging.hpp"

namespace otft::arch {
namespace {

SimStats
simulate(const CoreConfig &config, const std::string &workload,
         std::uint64_t instructions = 40000)
{
    auto profile = workload::profileByName(workload);
    workload::TraceGenerator gen(profile, 7);
    CoreModel core(config, gen);
    return core.run(instructions, 8000);
}

TEST(CoreModel, IpcInPhysicalRange)
{
    const auto stats = simulate(baselineConfig(), "gzip");
    EXPECT_GT(stats.ipc(), 0.05);
    // Single-issue front end can never exceed IPC 1.
    EXPECT_LE(stats.ipc(), 1.0);
    EXPECT_EQ(stats.instructions, 40000u);
}

TEST(CoreModel, WiderFrontEndRaisesIpc)
{
    auto narrow = baselineConfig();
    auto wide = baselineConfig();
    wide.fetchWidth = 4;
    wide.aluPipes = 3;
    const auto s_narrow = simulate(narrow, "dhrystone");
    const auto s_wide = simulate(wide, "dhrystone");
    EXPECT_GT(s_wide.ipc(), 1.15 * s_narrow.ipc());
}

TEST(CoreModel, DeeperFrontEndLowersIpc)
{
    auto shallow = baselineConfig();
    shallow.fetchWidth = 2;
    shallow.aluPipes = 2;
    auto deep = shallow;
    deep.stagesIn(Region::Fetch) += 3;
    deep.stagesIn(Region::Decode) += 2;
    const auto s_shallow = simulate(shallow, "gzip");
    const auto s_deep = simulate(deep, "gzip");
    EXPECT_LT(s_deep.ipc(), s_shallow.ipc());
}

TEST(CoreModel, WakeupPenaltyLowersIpc)
{
    auto fast = baselineConfig();
    fast.fetchWidth = 2;
    fast.aluPipes = 2;
    auto slow = fast;
    slow.stagesIn(Region::Issue) = 3;
    EXPECT_LT(simulate(slow, "gzip").ipc(),
              simulate(fast, "gzip").ipc());
}

TEST(CoreModel, McfIsMemoryBound)
{
    const auto mcf = simulate(baselineConfig(), "mcf");
    const auto dhry = simulate(baselineConfig(), "dhrystone");
    EXPECT_LT(mcf.ipc(), 0.4 * dhry.ipc());
    EXPECT_GT(mcf.l2Misses, dhry.l2Misses * 4);
}

TEST(CoreModel, BranchStatsPopulated)
{
    const auto stats = simulate(baselineConfig(), "parser");
    EXPECT_GT(stats.branches, 0u);
    EXPECT_GT(stats.mispredicts, 0u);
    EXPECT_LT(stats.mispredictRate(), 0.5);
    EXPECT_GT(stats.loads, 0u);
    EXPECT_GT(stats.stores, 0u);
}

TEST(CoreModel, DeterministicForSameSeedAndConfig)
{
    const auto a = simulate(baselineConfig(), "bzip", 20000);
    const auto b = simulate(baselineConfig(), "bzip", 20000);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
}

TEST(CoreModel, RejectsInvalidWidths)
{
    auto config = baselineConfig();
    config.fetchWidth = 0;
    auto profile = workload::profileByName("gzip");
    workload::TraceGenerator gen(profile, 7);
    EXPECT_THROW(CoreModel(config, gen), FatalError);
}

TEST(CoreModel, RejectsSubCycleLatency)
{
    // No execute stage: an ALU op would complete in the cycle it
    // issues, behind the completion wheel's drained bucket.
    auto config = baselineConfig();
    config.stagesIn(Region::Execute) = 0;
    auto profile = workload::profileByName("gzip");
    workload::TraceGenerator gen(profile, 7);
    EXPECT_THROW(CoreModel(config, gen), FatalError);
}

TEST(CoreModel, RejectsStreamWithOtherPredictorBits)
{
    FrontEndStream stream(workload::profileByName("gzip"), 7, 10);
    EXPECT_THROW(CoreModel(baselineConfig(), stream), FatalError);
}

/**
 * Cores reading one shared stream, one after another and at different
 * widths and depths, match cores on private generators field for
 * field: sharing the front end never changes a result.
 */
TEST(CoreModel, SharedStreamMatchesGenerator)
{
    std::vector<CoreConfig> configs(3, baselineConfig());
    configs[1].fetchWidth = 6;
    configs[1].aluPipes = 5;
    configs[2].fetchWidth = 2;
    configs[2].aluPipes = 2;
    configs[2].stagesIn(Region::Fetch) += 3;
    configs[2].stagesIn(Region::Issue) = 3;
    for (const char *name : {"parser", "mcf"}) {
        const auto profile = workload::profileByName(name);
        FrontEndStream stream(profile, 7, baselineConfig().predictorBits);
        for (const CoreConfig &config : configs) {
            workload::TraceGenerator gen(profile, 7);
            const SimStats a = CoreModel(config, gen).run(20000, 4000);
            const SimStats b = CoreModel(config, stream).run(20000, 4000);
            EXPECT_EQ(a.cycles, b.cycles) << name;
            EXPECT_EQ(a.instructions, b.instructions) << name;
            EXPECT_EQ(a.branches, b.branches) << name;
            EXPECT_EQ(a.mispredicts, b.mispredicts) << name;
            EXPECT_EQ(a.loads, b.loads) << name;
            EXPECT_EQ(a.stores, b.stores) << name;
            EXPECT_EQ(a.l1Misses, b.l1Misses) << name;
            EXPECT_EQ(a.l2Misses, b.l2Misses) << name;
        }
    }
}

TEST(CoreModel, ZeroWarmupWorks)
{
    auto profile = workload::profileByName("gzip");
    workload::TraceGenerator gen(profile, 7);
    CoreModel core(baselineConfig(), gen);
    const auto stats = core.run(5000, 0);
    EXPECT_EQ(stats.instructions, 5000u);
    EXPECT_GT(stats.cycles, 5000u);
}

/**
 * Golden statistics: every SimStats field, bit for bit, for cases that
 * exercise each stall the simulator can skip over (wide issue, the
 * wakeup penalty, a deep front end, blocking divides, long memory
 * misses, a cold start). Any change to the model's timing must show
 * up here as a deliberate golden update.
 */
struct GoldenCase
{
    const char *name;
    CoreConfig config;
    workload::BenchmarkProfile profile;
    std::uint64_t instructions;
    std::uint64_t warmup;
    SimStats expected;
};

SimStats
golden(std::uint64_t cycles, std::uint64_t instructions,
       std::uint64_t branches, std::uint64_t mispredicts,
       std::uint64_t loads, std::uint64_t stores, std::uint64_t l1_misses,
       std::uint64_t l2_misses)
{
    SimStats s;
    s.cycles = cycles;
    s.instructions = instructions;
    s.branches = branches;
    s.mispredicts = mispredicts;
    s.loads = loads;
    s.stores = stores;
    s.l1Misses = l1_misses;
    s.l2Misses = l2_misses;
    return s;
}

std::vector<GoldenCase>
goldenCases()
{
    std::vector<GoldenCase> cases;
    CoreConfig wide = baselineConfig();
    wide.fetchWidth = 6;
    wide.aluPipes = 5;
    cases.push_back({"wide", wide, workload::profileByName("gzip"), 20000,
                     8000,
                     golden(32957, 20000, 1986, 644, 4122, 1549, 1127,
                            527)});

    CoreConfig deep_issue = baselineConfig();
    deep_issue.fetchWidth = 2;
    deep_issue.aluPipes = 2;
    deep_issue.stagesIn(Region::Issue) = 3;
    cases.push_back({"deep_issue", deep_issue,
                     workload::profileByName("gzip"), 20000, 8000,
                     golden(44248, 20000, 1986, 644, 4122, 1549, 1132,
                            527)});

    CoreConfig deep_fetch = baselineConfig();
    deep_fetch.fetchWidth = 2;
    deep_fetch.aluPipes = 2;
    deep_fetch.stagesIn(Region::Fetch) += 3;
    deep_fetch.stagesIn(Region::Decode) += 2;
    cases.push_back({"deep_fetch", deep_fetch,
                     workload::profileByName("parser"), 20000, 8000,
                     golden(87911, 20003, 3285, 906, 4654, 1700, 4695,
                            2017)});

    CoreConfig div_core = baselineConfig();
    div_core.fetchWidth = 3;
    div_core.aluPipes = 2;
    workload::BenchmarkProfile div_heavy =
        workload::profileByName("dhrystone");
    div_heavy.divFraction = 0.05;
    div_heavy.mulFraction = 0.05;
    cases.push_back({"div_heavy", div_core, div_heavy, 20000, 8000,
                     golden(20089, 20000, 3509, 708, 4395, 2281, 0, 0)});

    cases.push_back({"mcf", baselineConfig(),
                     workload::profileByName("mcf"), 20000, 8000,
                     golden(263138, 20002, 3762, 1022, 6248, 1785, 10025,
                            7301)});

    cases.push_back({"zero_warmup", baselineConfig(),
                     workload::profileByName("bzip"), 5000, 0,
                     golden(24171, 5000, 511, 292, 1246, 458, 567, 530)});
    return cases;
}

TEST(CoreModel, GoldenStatsAreBitExact)
{
    for (const GoldenCase &c : goldenCases()) {
        workload::TraceGenerator gen(c.profile, 7);
        CoreModel core(c.config, gen);
        const SimStats s = core.run(c.instructions, c.warmup);
        EXPECT_EQ(s.cycles, c.expected.cycles) << c.name;
        EXPECT_EQ(s.instructions, c.expected.instructions) << c.name;
        EXPECT_EQ(s.branches, c.expected.branches) << c.name;
        EXPECT_EQ(s.mispredicts, c.expected.mispredicts) << c.name;
        EXPECT_EQ(s.loads, c.expected.loads) << c.name;
        EXPECT_EQ(s.stores, c.expected.stores) << c.name;
        EXPECT_EQ(s.l1Misses, c.expected.l1Misses) << c.name;
        EXPECT_EQ(s.l2Misses, c.expected.l2Misses) << c.name;
    }
}

/** One FNV-1a step over a 64-bit word. */
std::uint64_t
fnv1a(std::uint64_t hash, std::uint64_t word)
{
    return (hash ^ word) * 1099511628211ull;
}

/**
 * The whole Fig. 13 IPC grid at reduced length: every front-end width
 * (1-6) x back-end width (3-7) on every paper workload, hashing all
 * eight SimStats fields of each run in (back-end, front-end, workload)
 * order. Any timing change on any configuration moves the hash.
 */
TEST(CoreModel, Fig13GridHashIsBitExact)
{
    std::uint64_t hash = 1469598103934665603ull; // FNV offset basis
    std::uint64_t cycles = 0;
    for (int be = 3; be <= 7; ++be) {
        for (int fe = 1; fe <= 6; ++fe) {
            for (const auto &profile : workload::paperWorkloads()) {
                CoreConfig config = baselineConfig();
                config.fetchWidth = fe;
                config.aluPipes =
                    be - config.memPipes - config.branchPipes;
                workload::TraceGenerator gen(profile, 7);
                const SimStats s = CoreModel(config, gen).run(5000, 2000);
                for (std::uint64_t field :
                     {s.cycles, s.instructions, s.branches, s.mispredicts,
                      s.loads, s.stores, s.l1Misses, s.l2Misses})
                    hash = fnv1a(hash, field);
                cycles += s.cycles;
            }
        }
    }
    EXPECT_EQ(cycles, 5575431u);
    EXPECT_EQ(hash, 0xd3f3fcd9176f1090ull);
}

/**
 * Front-end depth grid: the Fig. 13 hash above only varies width at
 * baseline depth. Here every paper workload runs on fetch widths
 * {1, 2, 4, 6} x extra Fetch/Decode stages {0, 2, 5} x Issue stages
 * {1, 3}, so the fetch-to-dispatch delay, the misprediction refill and
 * the wakeup penalty all move the hash.
 */
TEST(CoreModel, DepthGridHashIsBitExact)
{
    std::uint64_t hash = 1469598103934665603ull; // FNV offset basis
    std::uint64_t cycles = 0;
    for (int fe : {1, 2, 4, 6}) {
        for (int extra : {0, 2, 5}) {
            for (int issue : {1, 3}) {
                for (const auto &profile : workload::paperWorkloads()) {
                    CoreConfig config = baselineConfig();
                    config.fetchWidth = fe;
                    config.aluPipes = std::max(1, fe - 1);
                    config.stagesIn(Region::Fetch) += extra - extra / 2;
                    config.stagesIn(Region::Decode) += extra / 2;
                    config.stagesIn(Region::Issue) = issue;
                    workload::TraceGenerator gen(profile, 7);
                    const SimStats s =
                        CoreModel(config, gen).run(5000, 2000);
                    for (std::uint64_t field :
                         {s.cycles, s.instructions, s.branches,
                          s.mispredicts, s.loads, s.stores, s.l1Misses,
                          s.l2Misses})
                        hash = fnv1a(hash, field);
                    cycles += s.cycles;
                }
            }
        }
    }
    EXPECT_EQ(cycles, 4784305u);
    EXPECT_EQ(hash, 0x5137d63b8b7d90dbull);
}

/**
 * Long-latency grid: the two grids above keep every latency short.
 * Here every paper workload (and a divide-heavy one) runs on
 * configurations with a 300-cycle memory, a 40-cycle divide and deep
 * Execute/RegRead/Issue regions, so completions land up to a few
 * hundred cycles ahead and the completion schedule holds its largest
 * spread of done cycles.
 */
TEST(CoreModel, LongLatencyGridHashIsBitExact)
{
    std::vector<CoreConfig> configs;
    CoreConfig slow_mem = baselineConfig();
    slow_mem.fetchWidth = 4;
    slow_mem.aluPipes = 3;
    slow_mem.memLatency = 300;
    configs.push_back(slow_mem);

    CoreConfig slow_div = baselineConfig();
    slow_div.fetchWidth = 3;
    slow_div.aluPipes = 2;
    slow_div.mulLatency = 8;
    slow_div.divLatency = 40;
    slow_div.stagesIn(Region::Issue) = 3;
    configs.push_back(slow_div);

    CoreConfig deep = baselineConfig();
    deep.fetchWidth = 6;
    deep.aluPipes = 5;
    deep.stagesIn(Region::Issue) = 3;
    deep.stagesIn(Region::RegRead) = 3;
    deep.stagesIn(Region::Execute) = 4;
    deep.divLatency = 40;
    deep.l2Latency = 30;
    deep.memLatency = 300;
    configs.push_back(deep);

    CoreConfig narrow_deep = deep;
    narrow_deep.fetchWidth = 1;
    narrow_deep.aluPipes = 1;
    configs.push_back(narrow_deep);

    // The paper workloads divide rarely; a divide-heavy variant keeps
    // the divide pipe busy.
    std::vector<workload::BenchmarkProfile> profiles =
        workload::paperWorkloads();
    workload::BenchmarkProfile div_heavy =
        workload::profileByName("dhrystone");
    div_heavy.divFraction = 0.05;
    div_heavy.mulFraction = 0.05;
    profiles.push_back(div_heavy);

    std::uint64_t hash = 1469598103934665603ull; // FNV offset basis
    std::uint64_t cycles = 0;
    for (const CoreConfig &config : configs) {
        for (const auto &profile : profiles) {
            workload::TraceGenerator gen(profile, 7);
            const SimStats s = CoreModel(config, gen).run(5000, 2000);
            for (std::uint64_t field :
                 {s.cycles, s.instructions, s.branches, s.mispredicts,
                  s.loads, s.stores, s.l1Misses, s.l2Misses})
                hash = fnv1a(hash, field);
            cycles += s.cycles;
        }
    }
    EXPECT_EQ(cycles, 1639471u);
    EXPECT_EQ(hash, 0x2e2e90578f4228b7ull);
}

/**
 * Queue-limit grid: the grids above keep the AnyCore-class ROB, IQ and
 * LSQ sizes, which rarely fill. Here every paper workload runs on a
 * 4-wide core with each structure shrunk until its limit binds: a
 * 24-entry ROB (not a power of two, so the ring is larger than the
 * ROB), a 6-entry issue queue, a 3-entry LSQ, and all three at once.
 * Each limited configuration must take more cycles than the unlimited
 * one, so each limit is really exercised.
 */
TEST(CoreModel, QueueLimitGridHashIsBitExact)
{
    CoreConfig base = baselineConfig();
    base.fetchWidth = 4;
    base.aluPipes = 3;
    CoreConfig rob = base;
    rob.robSize = 24;
    CoreConfig iq = base;
    iq.iqSize = 6;
    CoreConfig lsq = base;
    lsq.lsqSize = 3;
    CoreConfig all = rob;
    all.iqSize = iq.iqSize;
    all.lsqSize = lsq.lsqSize;
    const CoreConfig configs[] = {base, rob, iq, lsq, all};

    std::uint64_t hash = 1469598103934665603ull; // FNV offset basis
    std::uint64_t cycles[std::size(configs)] = {};
    for (std::size_t c = 0; c < std::size(configs); ++c) {
        for (const auto &profile : workload::paperWorkloads()) {
            workload::TraceGenerator gen(profile, 7);
            const SimStats s = CoreModel(configs[c], gen).run(5000, 2000);
            for (std::uint64_t field :
                 {s.cycles, s.instructions, s.branches, s.mispredicts,
                  s.loads, s.stores, s.l1Misses, s.l2Misses})
                hash = fnv1a(hash, field);
            cycles[c] += s.cycles;
        }
    }
    for (std::size_t c = 1; c < std::size(configs); ++c)
        EXPECT_GT(cycles[c], cycles[0]) << "config " << c;
    EXPECT_EQ(cycles[0] + cycles[1] + cycles[2] + cycles[3] + cycles[4],
              1096380u);
    EXPECT_EQ(hash, 0xdef6f86bcbc24293ull);
}

/** Sweep: every paper workload runs on a mid-size config. */
class AllWorkloadsRun : public ::testing::TestWithParam<const char *>
{
};

TEST_P(AllWorkloadsRun, ProducesPlausibleIpc)
{
    auto config = baselineConfig();
    config.fetchWidth = 2;
    config.aluPipes = 2;
    const auto stats = simulate(config, GetParam(), 30000);
    EXPECT_GT(stats.ipc(), 0.03) << GetParam();
    EXPECT_LT(stats.ipc(), 2.0) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Paper, AllWorkloadsRun,
                         ::testing::Values("bzip", "gap", "gzip",
                                           "mcf", "parser", "vortex",
                                           "dhrystone"));

/** Sweep: IPC monotonically non-increasing as mispredict penalty
 *  regions deepen. */
class DepthIpc : public ::testing::TestWithParam<int>
{
};

TEST_P(DepthIpc, FrontDepthHurts)
{
    auto config = baselineConfig();
    config.fetchWidth = 2;
    config.aluPipes = 2;
    config.stagesIn(Region::Fetch) = GetParam();
    const auto stats = simulate(config, "gzip");
    // Compare against one stage deeper.
    auto deeper = config;
    deeper.stagesIn(Region::Fetch) = GetParam() + 2;
    const auto deep_stats = simulate(deeper, "gzip");
    EXPECT_LE(deep_stats.ipc(), stats.ipc() * 1.01);
}

INSTANTIATE_TEST_SUITE_P(Depths, DepthIpc,
                         ::testing::Values(2, 3, 4, 5));

} // namespace
} // namespace otft::arch
