/** @file Unit tests for the branch direction predictor. */

#include <gtest/gtest.h>

#include "arch/predictor.hpp"
#include "util/logging.hpp"
#include "workload/trace.hpp"

namespace otft::arch {
namespace {

TEST(Predictor, LearnsAConstantBranch)
{
    GsharePredictor p(12);
    int misses = 0;
    for (int i = 0; i < 1000; ++i) {
        if (p.predict(0x4000) != true)
            ++misses;
        p.update(0x4000, true);
    }
    EXPECT_LT(misses, 5);
}

TEST(Predictor, LearnsOppositeBiasesWithoutAliasing)
{
    // Two adjacent pcs with opposite biases: gselect indexing must
    // keep them apart.
    GsharePredictor p(12);
    int misses = 0;
    for (int i = 0; i < 4000; ++i) {
        const bool first = i % 2 == 0;
        const std::uint64_t pc = first ? 0x1000 : 0x1004;
        const bool taken = first;
        if (p.predict(pc) != taken && i > 64)
            ++misses;
        p.update(pc, taken);
    }
    EXPECT_LT(misses, 40);
}

TEST(Predictor, LearnsShortPattern)
{
    // T T N repeating: 3-bit history disambiguates the phase.
    GsharePredictor p(12, 3);
    const bool pattern[] = {true, true, false};
    int misses = 0;
    for (int i = 0; i < 3000; ++i) {
        const bool taken = pattern[i % 3];
        if (p.predict(0x2000) != taken && i > 100)
            ++misses;
        p.update(0x2000, taken);
    }
    EXPECT_LT(misses, 150);
}

TEST(Predictor, AchievesLowMispredictOnDhrystone)
{
    auto profile = workload::profileByName("dhrystone");
    workload::TraceGenerator gen(profile, 7);
    GsharePredictor p(12);
    int misses = 0, branches = 0;
    for (int i = 0; i < 200000; ++i) {
        const auto inst = gen.next();
        if (inst.op != workload::OpClass::Branch)
            continue;
        ++branches;
        if (p.predict(inst.pc) != inst.taken)
            ++misses;
        p.update(inst.pc, inst.taken);
    }
    EXPECT_LT(static_cast<double>(misses) / branches, 0.15);
}

TEST(Predictor, ValidatesConfiguration)
{
    EXPECT_THROW(GsharePredictor(2), FatalError);
    EXPECT_THROW(GsharePredictor(12, 12), FatalError);
    EXPECT_THROW(GsharePredictor(12, -1), FatalError);
    EXPECT_NO_THROW(GsharePredictor(12, 0));
}

} // namespace
} // namespace otft::arch
