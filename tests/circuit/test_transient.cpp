/** @file Unit tests for transient analysis. */

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/transient.hpp"
#include "util/logging.hpp"

namespace otft::circuit {
namespace {

TEST(Transient, RcChargingCurve)
{
    // Step into an RC: v(t) = V (1 - exp(-t/RC)), RC = 1 ms.
    Circuit ckt;
    const NodeId in = ckt.addNode("in");
    const NodeId out = ckt.addNode("out");
    ckt.addVoltageSource(in, Circuit::ground,
                         Pwl::ramp(0.0, 1.0, 1e-4, 1e-6));
    ckt.addResistor(in, out, 1e4);
    ckt.addCapacitor(out, Circuit::ground, 1e-7);

    TransientConfig config;
    config.dt = 5e-6;
    config.tStop = 6e-3;
    TransientAnalysis tran(ckt);
    const auto result = tran.run(config);
    const auto v = result.node(out);

    // One time constant after the step: 63.2%.
    EXPECT_NEAR(v.at(1e-4 + 1e-3), 0.632, 0.02);
    // Five time constants: fully charged.
    EXPECT_NEAR(v.at(1e-4 + 5e-3), 1.0, 0.02);
    // Before the step: zero.
    EXPECT_NEAR(v.at(5e-5), 0.0, 1e-6);
}

TEST(Transient, RcTimeConstantFromCrossing)
{
    Circuit ckt;
    const NodeId in = ckt.addNode("in");
    const NodeId out = ckt.addNode("out");
    ckt.addVoltageSource(in, Circuit::ground,
                         Pwl::ramp(0.0, 1.0, 0.0, 1e-7));
    ckt.addResistor(in, out, 1e3);
    ckt.addCapacitor(out, Circuit::ground, 1e-6);

    TransientConfig config;
    config.dt = 1e-5;
    config.tStop = 8e-3;
    const auto result = TransientAnalysis(ckt).run(config);
    const auto v = result.node(out);
    const double t50 = v.firstCrossing(0.5, true);
    // t50 = RC ln 2 = 0.693 ms.
    EXPECT_NEAR(t50, 0.693e-3, 0.03e-3);
}

TEST(Transient, SourceEnergyIntegral)
{
    // Constant 1 V across 1 kOhm for 1 ms -> 1 uJ.
    Circuit ckt;
    const NodeId n = ckt.addNode("n");
    const SourceId src = ckt.addVoltageSource(n, Circuit::ground, 1.0);
    ckt.addResistor(n, Circuit::ground, 1000.0);

    TransientConfig config;
    config.dt = 1e-5;
    config.tStop = 1e-3;
    const auto result = TransientAnalysis(ckt).run(config);
    EXPECT_NEAR(result.sourceEnergy(src, 1.0, 0.0, 1e-3), 1e-6, 1e-8);
}

TEST(Transient, BreakpointsLandOnGrid)
{
    Circuit ckt;
    const NodeId in = ckt.addNode("in");
    ckt.addVoltageSource(in, Circuit::ground,
                         Pwl::points({0.0, 3.3e-4, 3.4e-4},
                                     {0.0, 0.0, 1.0}));
    ckt.addResistor(in, Circuit::ground, 100.0);

    TransientConfig config;
    config.dt = 1e-4; // breakpoints are between grid points
    config.tStop = 1e-3;
    const auto result = TransientAnalysis(ckt).run(config);
    const auto v = result.node(in);
    // The ramp start/end are sampled exactly.
    EXPECT_NEAR(v.at(3.3e-4), 0.0, 1e-9);
    EXPECT_NEAR(v.at(3.4e-4), 1.0, 1e-9);
}

TEST(Transient, RejectsBadConfig)
{
    Circuit ckt;
    ckt.addNode("n");
    TransientConfig config;
    config.dt = 0.0;
    EXPECT_THROW(TransientAnalysis(ckt).run(config), FatalError);
}

TEST(Transient, CouplingCapacitorBootstraps)
{
    // A step through a coupling cap into a resistor spikes then
    // decays back toward zero.
    Circuit ckt;
    const NodeId in = ckt.addNode("in");
    const NodeId out = ckt.addNode("out");
    ckt.addVoltageSource(in, Circuit::ground,
                         Pwl::ramp(0.0, 1.0, 1e-4, 1e-6));
    ckt.addCapacitor(in, out, 1e-7);
    ckt.addResistor(out, Circuit::ground, 1e4);

    TransientConfig config;
    config.dt = 2e-6;
    config.tStop = 8e-3;
    const auto result = TransientAnalysis(ckt).run(config);
    const auto v = result.node(out);
    EXPECT_GT(v.at(1.05e-4), 0.6);
    EXPECT_NEAR(v.at(7e-3), 0.0, 0.02);
}

/**
 * A fixed-step run ended by a stop predicate is a bit-identical prefix
 * of the full run, ending at the first point the predicate accepts;
 * a predicate that never fires reproduces the full run.
 */
TEST(Transient, StopPredicateEndsFixedRunOnAPrefix)
{
    Circuit ckt;
    const NodeId in = ckt.addNode("in");
    const NodeId out = ckt.addNode("out");
    ckt.addVoltageSource(in, Circuit::ground,
                         Pwl::ramp(0.0, 1.0, 1e-4, 1e-6));
    ckt.addResistor(in, out, 1e4);
    ckt.addCapacitor(out, Circuit::ground, 1e-7);

    TransientConfig config;
    config.dt = 5e-6;
    config.tStop = 3e-3;
    config.fixedStep = true;
    const auto full = TransientAnalysis(ckt).run(config);

    // The predicate sees every recorded time, in order.
    std::vector<double> seen;
    const auto half = TransientAnalysis(ckt).run(
        config, [&](double t, const std::vector<double> &v) {
            seen.push_back(t);
            EXPECT_EQ(v[static_cast<std::size_t>(Circuit::ground)], 0.0);
            return v[static_cast<std::size_t>(out)] >= 0.5;
        });
    const auto never = TransientAnalysis(ckt).run(
        config, [](double, const std::vector<double> &) {
            return false;
        });

    const std::size_t n = half.time().size();
    ASSERT_GT(n, 1u);
    ASSERT_LT(n, full.time().size());
    EXPECT_EQ(seen, half.time());
    for (const NodeId node : {in, out}) {
        const Trace part = half.node(node);
        const Trace whole = full.node(node);
        for (std::size_t k = 0; k < n; ++k) {
            EXPECT_EQ(part.time[k], whole.time[k]);
            EXPECT_EQ(part.value[k], whole.value[k]);
        }
    }
    EXPECT_GE(half.node(out).value.back(), 0.5);
    EXPECT_LT(half.node(out).value[n - 2], 0.5);

    EXPECT_EQ(never.time(), full.time());
    for (const NodeId node : {in, out})
        EXPECT_EQ(never.node(node).value, full.node(node).value);
}

} // namespace
} // namespace otft::circuit
