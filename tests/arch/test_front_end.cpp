/** @file Tests for the compute-once front-end stream. */

#include <gtest/gtest.h>

#include "arch/front_end.hpp"
#include "arch/predictor.hpp"

namespace otft::arch {
namespace {

using workload::OpClass;

TEST(FrontEndStream, PackRoundTripsEveryField)
{
    for (OpClass op : {OpClass::IntAlu, OpClass::IntMul, OpClass::IntDiv,
                       OpClass::Load, OpClass::Store, OpClass::Branch}) {
        for (int reg : {workload::noReg, 0, 1, workload::numArchRegs - 1}) {
            for (bool flag : {false, true}) {
                workload::TraceInst inst;
                inst.op = op;
                inst.src1 = reg;
                inst.src2 = workload::numArchRegs - 1 - (reg + 1);
                inst.dest = reg;
                inst.taken = flag;
                const FrontEndInst back =
                    FrontEndStream::unpack(FrontEndStream::pack(inst, !flag));
                EXPECT_EQ(back.op, inst.op);
                EXPECT_EQ(back.src1, inst.src1);
                EXPECT_EQ(back.src2, inst.src2);
                EXPECT_EQ(back.dest, inst.dest);
                EXPECT_EQ(back.taken, inst.taken);
                EXPECT_EQ(back.mispredicted, !flag);
            }
        }
    }
}

/**
 * The stream is exactly a fresh generator plus a gshare predictor run
 * in program order, for every paper workload, across three chunk
 * boundaries.
 */
TEST(FrontEndStream, MatchesGeneratorAndPredictorAcrossChunks)
{
    constexpr std::size_t count = 3 * FrontEndStream::chunkInsts + 1000;
    for (const auto &profile : workload::paperWorkloads()) {
        FrontEndStream stream(profile, 7, 12);
        FrontEndCursor cursor(stream);
        workload::TraceGenerator gen(profile, 7);
        GsharePredictor predictor(12);
        std::size_t mismatches = 0;
        std::uint64_t branches = 0, mispredicts = 0;
        for (std::size_t i = 0; i < count; ++i, cursor.pop()) {
            const workload::TraceInst want = gen.next();
            bool mispredicted = false;
            if (want.op == OpClass::Branch) {
                mispredicted = predictor.predict(want.pc) != want.taken;
                predictor.update(want.pc, want.taken);
                ++branches;
                mispredicts += mispredicted;
            }
            const FrontEndInst got = FrontEndStream::unpack(cursor.word());
            if (got.op != want.op || got.src1 != want.src1 ||
                got.src2 != want.src2 || got.dest != want.dest ||
                got.taken != want.taken || cursor.address() != want.address ||
                got.mispredicted != mispredicted) {
                ADD_FAILURE() << profile.name << ": instruction " << i
                              << " differs";
                if (++mismatches == 5)
                    break;
            }
        }
        EXPECT_GT(branches, 0u) << profile.name;
        EXPECT_GT(mispredicts, 0u) << profile.name;
    }
}

TEST(FrontEndStream, BorrowedGeneratorContinuesFromItsPosition)
{
    const auto profile = workload::profileByName("gap");
    workload::TraceGenerator reference(profile, 3);
    workload::TraceGenerator borrowed(profile, 3);
    for (int i = 0; i < 100; ++i) {
        reference.next();
        borrowed.next();
    }
    FrontEndStream stream(borrowed, 10);
    EXPECT_EQ(stream.predictorBits(), 10);
    FrontEndCursor cursor(stream);
    for (int i = 0; i < 1000; ++i, cursor.pop()) {
        const workload::TraceInst want = reference.next();
        const FrontEndInst got = FrontEndStream::unpack(cursor.word());
        ASSERT_EQ(got.op, want.op) << i;
        ASSERT_EQ(got.dest, want.dest) << i;
        ASSERT_EQ(cursor.address(), want.address) << i;
    }
}

} // namespace
} // namespace otft::arch
