/**
 * @file
 * Failure-forensics tests: dump serialization round-trips bit-exactly
 * (including NaN/Inf states), a deliberately non-convergent solve
 * writes a content-addressed dump, and replaying that dump reproduces
 * the recorded iteration sequence bit for bit.
 */

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>

#include <gtest/gtest.h>

#include "circuit/dump.hpp"
#include "circuit/mna.hpp"
#include "device/pentacene.hpp"
#include "util/diag.hpp"
#include "util/logging.hpp"

namespace otft::circuit {
namespace {

/** The one-FET diode testbench (strongly nonlinear). */
Circuit
diodeCircuit()
{
    Circuit ckt;
    const NodeId supply = ckt.addNode("vneg");
    const NodeId mid = ckt.addNode("mid");
    ckt.addVoltageSource(supply, Circuit::ground, -10.0);
    ckt.addResistor(Circuit::ground, mid, 1e5);
    ckt.addFet(device::makePentaceneGolden(), supply, supply, mid);
    return ckt;
}

/** Scoped dump directory: enables dumps, cleans up on destruction. */
class DumpDirGuard
{
  public:
    explicit DumpDirGuard(const std::string &dir)
        : dir_(dir)
    {
        std::filesystem::remove_all(dir_);
        diag::Collector::instance().reset();
        diag::Collector::instance().setDumpDirectory(dir_);
    }

    ~DumpDirGuard()
    {
        diag::Collector::instance().setDumpDirectory("");
        diag::Collector::instance().setEnabled(false);
        diag::Collector::instance().reset();
        std::filesystem::remove_all(dir_);
    }

    const std::string &dir() const { return dir_; }

  private:
    std::string dir_;
};

/**
 * Expect `dumped` to equal `replayed[offset...]` bit for bit: same
 * iteration indices, residual and update norms, and chord decisions.
 */
void
expectSameIterations(const std::vector<IterationSample> &dumped,
                     const std::vector<IterationSample> &replayed,
                     std::size_t offset)
{
    ASSERT_GE(replayed.size(), offset + dumped.size());
    const auto bits = [](double v) {
        return std::bit_cast<std::uint64_t>(v);
    };
    for (std::size_t i = 0; i < dumped.size(); ++i) {
        const auto &d = dumped[i];
        const auto &r = replayed[offset + i];
        EXPECT_EQ(d.iteration, r.iteration) << "row " << i;
        EXPECT_EQ(bits(d.residualNorm), bits(r.residualNorm))
            << "row " << i;
        EXPECT_EQ(bits(d.maxUpdate), bits(r.maxUpdate)) << "row " << i;
        EXPECT_EQ(d.chord, r.chord) << "row " << i;
    }
}

TEST(DiagDump, SerializeParseRoundTripsTheCircuit)
{
    Circuit ckt = diodeCircuit();
    NewtonConfig cfg;
    cfg.maxIterations = 17;
    cfg.tolerance = 1e-9;
    cfg.chordRefreshRatio = 0.75;
    Mna mna(ckt, cfg);
    Solution x0 = mna.zeroSolution();
    x0[0] = -1.25;
    Solution x_prev = mna.zeroSolution();
    x_prev[1] = 0.5;

    std::vector<IterationSample> trace = {
        {0, 1.5, 0.7, false}, {1, 0.3, 0.1, true}};
    const std::string body = dump::serializeDump(
        ckt, cfg, x0, dump::SolveKind::TransientStep, 1.5e-6, 1.0,
        2.5e-7, &x_prev, "unit_test", "ctx.unit", trace);

    const dump::FailureDump parsed = dump::parseFailureDump(body);
    EXPECT_EQ(parsed.reason, "unit_test");
    EXPECT_EQ(parsed.context, "ctx.unit");
    EXPECT_EQ(parsed.kind, dump::SolveKind::TransientStep);
    EXPECT_EQ(parsed.time, 1.5e-6);
    EXPECT_EQ(parsed.dt, 2.5e-7);
    EXPECT_EQ(parsed.config.maxIterations, 17);
    EXPECT_EQ(parsed.config.tolerance, 1e-9);
    EXPECT_EQ(parsed.config.chordRefreshRatio, 0.75);

    EXPECT_EQ(parsed.circuit.numNodes(), ckt.numNodes());
    EXPECT_EQ(parsed.circuit.nodeName(1), "vneg");
    EXPECT_EQ(parsed.circuit.resistors().size(), 1u);
    EXPECT_EQ(parsed.circuit.fets().size(), 1u);
    EXPECT_EQ(parsed.circuit.voltageSources().size(), 1u);

    ASSERT_EQ(parsed.x0.size(), x0.size());
    for (std::size_t i = 0; i < x0.size(); ++i)
        EXPECT_EQ(parsed.x0[i], x0[i]);
    ASSERT_TRUE(parsed.hasPrev);
    ASSERT_EQ(parsed.xPrev.size(), x_prev.size());
    for (std::size_t i = 0; i < x_prev.size(); ++i)
        EXPECT_EQ(parsed.xPrev[i], x_prev[i]);

    ASSERT_EQ(parsed.trace.size(), 2u);
    EXPECT_EQ(parsed.trace[0].residualNorm, 1.5);
    EXPECT_FALSE(parsed.trace[0].chord);
    EXPECT_TRUE(parsed.trace[1].chord);
}

TEST(DiagDump, NonFiniteStateSurvivesTheRoundTrip)
{
    Circuit ckt = diodeCircuit();
    NewtonConfig cfg;
    Mna mna(ckt, cfg);
    Solution x0 = mna.zeroSolution();
    x0[0] = std::numeric_limits<double>::quiet_NaN();
    x0[1] = std::numeric_limits<double>::infinity();
    x0[2] = -std::numeric_limits<double>::infinity();

    const std::string body = dump::serializeDump(
        ckt, cfg, x0, dump::SolveKind::Dc, 0.0, 1.0, 0.0, nullptr,
        "nan_test", "", {});
    // Telemetry launders NaN to 0; forensics must not.
    const dump::FailureDump parsed = dump::parseFailureDump(body);
    EXPECT_TRUE(std::isnan(parsed.x0[0]));
    EXPECT_TRUE(std::isinf(parsed.x0[1]));
    EXPECT_GT(parsed.x0[1], 0.0);
    EXPECT_TRUE(std::isinf(parsed.x0[2]));
    EXPECT_LT(parsed.x0[2], 0.0);
}

TEST(DiagDump, SerializedDoublesAreBitExact)
{
    Circuit ckt = diodeCircuit();
    NewtonConfig cfg;
    // Values chosen to expose any precision loss below %.17g.
    cfg.tolerance = 0.1 + 0.2;
    cfg.gmin = 1.0 / 3.0;
    Mna mna(ckt, cfg);
    Solution x0 = mna.zeroSolution();
    x0[0] = std::nextafter(-2.5, 0.0);

    const dump::FailureDump parsed =
        dump::parseFailureDump(dump::serializeDump(
            ckt, cfg, x0, dump::SolveKind::Dc, 0.0, 1.0, 0.0, nullptr,
            "precision", "", {}));
    EXPECT_EQ(parsed.config.tolerance, 0.1 + 0.2);
    EXPECT_EQ(parsed.config.gmin, 1.0 / 3.0);
    EXPECT_EQ(parsed.x0[0], std::nextafter(-2.5, 0.0));
}

TEST(DiagDump, RejectsThePreviousSchema)
{
    // An otft-diag-dump-2 document carries a run-attributes object
    // that this reader no longer knows; the schema check turns the
    // old document away before any parsing.
    Circuit ckt = diodeCircuit();
    NewtonConfig cfg;
    Mna mna(ckt, cfg);
    std::string body = dump::serializeDump(
        ckt, cfg, mna.zeroSolution(), dump::SolveKind::Dc, 0.0, 1.0,
        0.0, nullptr, "old_schema", "", {});
    const std::string tag = dump::dumpSchema;
    ASSERT_EQ(tag, "otft-diag-dump-3");
    body.replace(body.find(tag), tag.size(), "otft-diag-dump-2");
    try {
        (void)dump::parseFailureDump(body);
        FAIL() << "a -2 document parsed";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("schema mismatch"),
                  std::string::npos)
            << e.what();
    }
}

TEST(DiagDump, ForcedNonConvergenceWritesAReplayableDump)
{
    DumpDirGuard guard("diag_dump_test_dir");

    // Unreachable tolerance: the solve must exhaust maxIterations.
    Circuit ckt = diodeCircuit();
    NewtonConfig cfg;
    cfg.maxIterations = 6;
    cfg.tolerance = 1e-18;
    Mna mna(ckt, cfg);
    Solution x = mna.zeroSolution();
    EXPECT_FALSE(mna.solveNewton(x, 0.0, 1.0, 0.0, nullptr));

    const auto paths = diag::Collector::instance().dumpPaths();
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_TRUE(std::filesystem::exists(paths[0]));

    const dump::FailureDump dumped = dump::readFailureDump(paths[0]);
    EXPECT_EQ(dumped.reason, "newton_max_iterations");
    EXPECT_EQ(dumped.kind, dump::SolveKind::Dc);
    ASSERT_FALSE(dumped.trace.empty());

    // Replay must fail the same way with a bit-identical iteration
    // sequence; the dump holds the whole (short) solve.
    const dump::ReplayResult replay = dump::replayDump(dumped);
    EXPECT_FALSE(replay.converged);
    ASSERT_EQ(replay.trace.size(), 6u);
    ASSERT_EQ(dumped.trace.size(), 6u);
    expectSameIterations(dumped.trace, replay.trace, 0);
}

TEST(DiagDump, LongFailureDumpsItsLastIterations)
{
    DumpDirGuard guard("diag_dump_test_tail");

    // 100 iterations, more than a dump keeps: the dump must hold the
    // last dumpedIterations of them, 36..99, in order. Unclamped, the
    // diode solve lands exactly (update 0) at iteration 13; a 50 mV
    // step clamp keeps it 10 V from the answer for all 100.
    Circuit ckt = diodeCircuit();
    NewtonConfig cfg;
    cfg.maxIterations = 100;
    cfg.tolerance = 1e-18;
    cfg.maxStep = 0.05;
    Mna mna(ckt, cfg);
    Solution x = mna.zeroSolution();
    EXPECT_FALSE(mna.solveNewton(x, 0.0, 1.0, 0.0, nullptr));

    const auto paths = diag::Collector::instance().dumpPaths();
    ASSERT_EQ(paths.size(), 1u);
    const dump::FailureDump dumped = dump::readFailureDump(paths[0]);
    ASSERT_EQ(dump::dumpedIterations, 64u);
    ASSERT_EQ(dumped.trace.size(), dump::dumpedIterations);
    for (std::size_t i = 0; i < dumped.trace.size(); ++i)
        EXPECT_EQ(dumped.trace[i].iteration, 36 + static_cast<int>(i));

    // The replay logs all 100; the dump is their last 64 bit for bit.
    const dump::ReplayResult replay = dump::replayDump(dumped);
    EXPECT_FALSE(replay.converged);
    ASSERT_EQ(replay.trace.size(), 100u);
    for (std::size_t i = 0; i < replay.trace.size(); ++i)
        EXPECT_EQ(replay.trace[i].iteration, static_cast<int>(i));
    expectSameIterations(dumped.trace, replay.trace, 36);

    // The replay ran with dumps on too, and wrote the same bytes.
    EXPECT_EQ(diag::Collector::instance().dumpPaths(), paths);
}

TEST(DiagDump, IdenticalFailuresDedupeToOneArtifact)
{
    DumpDirGuard guard("diag_dump_test_dedupe");

    Circuit ckt = diodeCircuit();
    NewtonConfig cfg;
    cfg.maxIterations = 4;
    cfg.tolerance = 1e-18;
    for (int run = 0; run < 3; ++run) {
        Mna mna(ckt, cfg);
        Solution x = mna.zeroSolution();
        EXPECT_FALSE(mna.solveNewton(x, 0.0, 1.0, 0.0, nullptr));
    }
    // Content-addressed: three identical failures, one file.
    EXPECT_EQ(diag::Collector::instance().dumpPaths().size(), 1u);
    std::size_t files = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(guard.dir()))
        files += entry.is_regular_file() ? 1 : 0;
    EXPECT_EQ(files, 1u);
}

TEST(DiagDump, SingularJacobianWithoutRecoveryDumps)
{
    DumpDirGuard guard("diag_dump_test_singular");

    // A capacitor-only node with gmin and the boost both off keeps
    // the DC Jacobian exactly singular.
    Circuit ckt;
    const NodeId driven = ckt.addNode("driven");
    const NodeId floating = ckt.addNode("floating");
    ckt.addVoltageSource(driven, Circuit::ground, 1.0);
    ckt.addCapacitor(driven, floating, 1e-12);
    NewtonConfig cfg;
    cfg.gmin = 0.0;
    cfg.singularGminBoost = 0.0;
    Mna mna(ckt, cfg);
    Solution x = mna.zeroSolution();
    EXPECT_FALSE(mna.solveNewton(x, 0.0, 1.0, 0.0, nullptr));

    const auto paths = diag::Collector::instance().dumpPaths();
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_EQ(dump::readFailureDump(paths[0]).reason,
              "jacobian_singular");
}

TEST(DiagDump, NoDumpsWhenDisabled)
{
    diag::Collector::instance().reset();
    ASSERT_FALSE(diag::Collector::instance().dumpsEnabled());
    Circuit ckt = diodeCircuit();
    NewtonConfig cfg;
    cfg.maxIterations = 4;
    cfg.tolerance = 1e-18;
    Mna mna(ckt, cfg);
    Solution x = mna.zeroSolution();
    EXPECT_FALSE(mna.solveNewton(x, 0.0, 1.0, 0.0, nullptr));
    EXPECT_TRUE(diag::Collector::instance().dumpPaths().empty());
}

} // namespace
} // namespace otft::circuit
