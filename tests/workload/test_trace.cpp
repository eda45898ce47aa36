/** @file Unit tests for synthetic trace generation. */

#include <map>

#include <gtest/gtest.h>

#include "util/logging.hpp"
#include "util/stats_registry.hpp"
#include "workload/trace.hpp"

namespace otft::workload {
namespace {

TEST(Workloads, SevenPaperWorkloads)
{
    const auto all = paperWorkloads();
    ASSERT_EQ(all.size(), 7u);
    std::vector<std::string> names;
    for (const auto &p : all)
        names.push_back(p.name);
    for (const char *expect : {"bzip", "gap", "gzip", "mcf", "parser",
                               "vortex", "dhrystone"})
        EXPECT_NE(std::find(names.begin(), names.end(), expect),
                  names.end())
            << expect;
}

TEST(Workloads, ProfileByNameAndUnknown)
{
    EXPECT_EQ(profileByName("mcf").name, "mcf");
    EXPECT_THROW(profileByName("spice"), FatalError);
}

TEST(TraceGenerator, Deterministic)
{
    const auto profile = profileByName("gzip");
    TraceGenerator a(profile, 5), b(profile, 5);
    for (int i = 0; i < 1000; ++i) {
        const auto ia = a.next();
        const auto ib = b.next();
        EXPECT_EQ(static_cast<int>(ia.op), static_cast<int>(ib.op));
        EXPECT_EQ(ia.pc, ib.pc);
        EXPECT_EQ(ia.taken, ib.taken);
        EXPECT_EQ(ia.address, ib.address);
    }
}

TEST(TraceGenerator, DestroyedGeneratorAddsExactCount)
{
    const stats::Counter &generated =
        stats::counter("workload.instructions.generated");
    const std::uint64_t before = generated.value();
    {
        TraceGenerator gen(profileByName("mcf"), 3);
        for (int i = 0; i < 1234; ++i)
            gen.next();
    }
    EXPECT_EQ(generated.value() - before, 1234u);
}

TEST(TraceGenerator, MixMatchesProfile)
{
    const auto profile = profileByName("mcf");
    TraceGenerator gen(profile, 7);
    std::map<OpClass, int> counts;
    const int n = 60000;
    for (int i = 0; i < n; ++i)
        ++counts[gen.next().op];

    EXPECT_NEAR(static_cast<double>(counts[OpClass::Branch]) / n,
                profile.branchFraction, 0.02);
    EXPECT_NEAR(static_cast<double>(counts[OpClass::Load]) / n,
                profile.loadFraction, 0.02);
    EXPECT_NEAR(static_cast<double>(counts[OpClass::Store]) / n,
                profile.storeFraction, 0.02);
}

TEST(TraceGenerator, BranchSitesAreBiased)
{
    // The per-site outcome streams must be learnable: most sites
    // strongly biased (this is what the direction predictor exploits).
    const auto profile = profileByName("dhrystone");
    TraceGenerator gen(profile, 7);
    std::map<std::uint64_t, std::pair<int, int>> sites;
    for (int i = 0; i < 150000; ++i) {
        const auto inst = gen.next();
        if (inst.op != OpClass::Branch)
            continue;
        auto &s = sites[inst.pc];
        ++s.second;
        if (inst.taken)
            ++s.first;
    }
    double predictable = 0.0, total = 0.0;
    for (const auto &[pc, s] : sites) {
        const double rate =
            static_cast<double>(s.first) / s.second;
        const double best = std::min(rate, 1.0 - rate);
        predictable += best * s.second;
        total += s.second;
    }
    // Ideal static-per-site mispredict rate well under 15%.
    EXPECT_LT(predictable / total, 0.15);
}

TEST(TraceGenerator, RegistersInRange)
{
    const auto profile = profileByName("gap");
    TraceGenerator gen(profile, 11);
    for (int i = 0; i < 5000; ++i) {
        const auto inst = gen.next();
        for (int reg : {inst.src1, inst.src2, inst.dest}) {
            if (reg != noReg) {
                EXPECT_GE(reg, 0);
                EXPECT_LT(reg, numArchRegs);
            }
        }
        if (inst.op == OpClass::Branch) {
            EXPECT_EQ(inst.dest, noReg);
        }
        if (inst.op == OpClass::Load) {
            EXPECT_NE(inst.dest, noReg);
        }
    }
}

TEST(TraceGenerator, AddressesInsideWorkingSet)
{
    const auto profile = profileByName("bzip");
    TraceGenerator gen(profile, 13);
    for (int i = 0; i < 20000; ++i) {
        const auto inst = gen.next();
        if (inst.op != OpClass::Load && inst.op != OpClass::Store)
            continue;
        EXPECT_GE(inst.address, 0x10000u);
        EXPECT_LE(inst.address,
                  0x10000 + profile.workingSetBytes + 64);
    }
}

TEST(TraceGenerator, McfLeastLocal)
{
    // mcf's profile must be the memory-hostile one.
    const auto mcf = profileByName("mcf");
    const auto dhry = profileByName("dhrystone");
    EXPECT_LT(mcf.hotFraction, dhry.hotFraction);
    EXPECT_GT(mcf.workingSetBytes, dhry.workingSetBytes);
    EXPECT_GT(mcf.pointerChaseFraction, dhry.pointerChaseFraction);
}

/**
 * Bit-exact trace streams: the first 50k instructions of every paper
 * workload at seed 7, every TraceInst field hashed (FNV-1a over 64-bit
 * words). Every IPC number depends on these streams, so a generator
 * change that alters any of them must show up here as a deliberate
 * golden update.
 */
TEST(TraceGenerator, PaperTracesAreBitExact)
{
    std::uint64_t hash = 1469598103934665603ull; // FNV offset basis
    const auto mix = [&](std::uint64_t word) {
        hash = (hash ^ word) * 1099511628211ull;
    };
    for (const auto &profile : paperWorkloads()) {
        TraceGenerator gen(profile, 7);
        for (int i = 0; i < 50000; ++i) {
            const TraceInst inst = gen.next();
            mix(static_cast<std::uint64_t>(inst.op));
            mix(static_cast<std::uint64_t>(inst.src1));
            mix(static_cast<std::uint64_t>(inst.src2));
            mix(static_cast<std::uint64_t>(inst.dest));
            mix(inst.pc);
            mix(inst.taken ? 1 : 0);
            mix(inst.target);
            mix(inst.address);
        }
    }
    EXPECT_EQ(hash, 0xa63b199f009ee64cull);
}

/** Sweep: every paper workload generates well-formed traces. */
class AllWorkloads : public ::testing::TestWithParam<const char *>
{
};

TEST_P(AllWorkloads, GeneratesSaneTraces)
{
    const auto profile = profileByName(GetParam());
    TraceGenerator gen(profile, 99);
    int branches = 0;
    for (int i = 0; i < 20000; ++i) {
        const auto inst = gen.next();
        if (inst.op == OpClass::Branch) {
            ++branches;
            EXPECT_NE(inst.target, 0u);
        }
    }
    EXPECT_GT(branches, 20000 * profile.branchFraction * 0.7);
}

INSTANTIATE_TEST_SUITE_P(Paper, AllWorkloads,
                         ::testing::Values("bzip", "gap", "gzip",
                                           "mcf", "parser", "vortex",
                                           "dhrystone"));

} // namespace
} // namespace otft::workload
