/**
 * @file
 * Tests of the LTE-controlled adaptive timestep engine: accuracy
 * against the fixed-step reference, exact breakpoint landing, step
 * budget reduction, the [dtMin, dtMax] bounds, and the Newton
 * predictor's iteration count.
 */

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "cells/topologies.hpp"
#include "circuit/transient.hpp"
#include "util/stats_registry.hpp"

namespace otft::circuit {
namespace {

Circuit
rcCircuit(NodeId &out)
{
    Circuit ckt;
    const NodeId in = ckt.addNode("in");
    out = ckt.addNode("out");
    ckt.addVoltageSource(in, Circuit::ground,
                         Pwl::ramp(0.0, 1.0, 1e-4, 1e-6));
    ckt.addResistor(in, out, 1e4);
    ckt.addCapacitor(out, Circuit::ground, 1e-7); // RC = 1 ms
    return ckt;
}

TEST(AdaptiveTransient, MatchesFixedStepWithinLteTolerance)
{
    NodeId out = 0;
    Circuit adaptive_ckt = rcCircuit(out);
    Circuit fixed_ckt = rcCircuit(out);

    TransientConfig config;
    config.dt = 5e-6;
    config.tStop = 6e-3;
    // Cap the step so the sampled trace's linear interpolation error
    // (h^2 v'' / 8) stays well below the solver's own LTE budget;
    // uncapped growth is exercised by the step-count test below.
    config.dtMax = 50e-6;

    TransientConfig fixed_config = config;
    fixed_config.fixedStep = true;

    const auto adaptive = TransientAnalysis(adaptive_ckt).run(config);
    const auto fixed = TransientAnalysis(fixed_ckt).run(fixed_config);
    const auto va = adaptive.node(out);
    const auto vf = fixed.node(out);

    // The documented contract (DESIGN.md): waveforms agree within a
    // small multiple of lteTol at any sample time.
    for (double t = 1e-4; t < 6e-3; t += 1e-4)
        EXPECT_NEAR(va.at(t), vf.at(t), 5.0 * config.lteTol)
            << "t = " << t;
}

TEST(AdaptiveTransient, LandsExactlyOnBreakpoints)
{
    Circuit ckt;
    const NodeId in = ckt.addNode("in");
    ckt.addVoltageSource(in, Circuit::ground,
                         Pwl::points({0.0, 3.3e-4, 3.4e-4},
                                     {0.0, 0.0, 1.0}));
    ckt.addResistor(in, Circuit::ground, 100.0);

    TransientConfig config;
    config.dt = 1e-4; // breakpoints fall between nominal steps
    config.tStop = 1e-3;
    const auto result = TransientAnalysis(ckt).run(config);
    const auto &times = result.time();

    // The breakpoints and tStop are solver steps, exactly.
    for (double bp : {3.3e-4, 3.4e-4, 1e-3})
        EXPECT_NE(std::find(times.begin(), times.end(), bp),
                  times.end())
            << "breakpoint " << bp << " not hit exactly";

    const auto v = result.node(in);
    EXPECT_NEAR(v.at(3.3e-4), 0.0, 1e-9);
    EXPECT_NEAR(v.at(3.4e-4), 1.0, 1e-9);
}

TEST(AdaptiveTransient, UsesFarFewerStepsOnSettledWaveforms)
{
    NodeId out = 0;
    Circuit adaptive_ckt = rcCircuit(out);
    Circuit fixed_ckt = rcCircuit(out);

    TransientConfig config;
    config.dt = 5e-6;
    config.tStop = 6e-3;
    TransientConfig fixed_config = config;
    fixed_config.fixedStep = true;

    const auto adaptive = TransientAnalysis(adaptive_ckt).run(config);
    const auto fixed = TransientAnalysis(fixed_ckt).run(fixed_config);
    // The exponential tail is quiescent; LTE control must grow the
    // step well past dt. 3x is conservative (typically ~10x+).
    EXPECT_LT(adaptive.time().size() * 3, fixed.time().size());
    EXPECT_GT(adaptive.time().size(), 10u);
}

TEST(AdaptiveTransient, RespectsStepBounds)
{
    NodeId out = 0;
    Circuit ckt = rcCircuit(out);
    TransientConfig config;
    config.dt = 5e-6;
    config.tStop = 2e-3;
    config.dtMin = 2e-6;
    config.dtMax = 40e-6;
    const auto result = TransientAnalysis(ckt).run(config);
    const auto &times = result.time();
    ASSERT_GT(times.size(), 2u);
    for (std::size_t k = 1; k < times.size(); ++k) {
        const double h = times[k] - times[k - 1];
        EXPECT_GT(h, 0.0);
        // Landing steps may undershoot dtMin to hit a breakpoint;
        // nothing may exceed dtMax.
        EXPECT_LE(h, config.dtMax * (1.0 + 1e-12));
    }
}

TEST(AdaptiveTransient, RejectionCounterMovesOnSharpEdges)
{
    stats::Counter &rejections = stats::counter(
        "circuit.transient.lte_rejections",
        "adaptive steps rejected for excess local truncation error");
    const std::uint64_t before = rejections.value();

    // A fast edge into a slow RC forces the controller to cut steps
    // right after the breakpoint resets.
    Circuit ckt;
    const NodeId in = ckt.addNode("in");
    const NodeId out = ckt.addNode("out");
    ckt.addVoltageSource(in, Circuit::ground,
                         Pwl::pulse(0.0, 5.0, 1e-4, 1e-6, 4e-4));
    ckt.addResistor(in, out, 1e3);
    ckt.addCapacitor(out, Circuit::ground, 1e-7);
    TransientConfig config;
    config.dt = 2e-5;
    config.tStop = 1.5e-3;
    config.lteTol = 1e-4; // tight budget to provoke rejections
    (void)TransientAnalysis(ckt).run(config);
    EXPECT_GT(rejections.value(), before);
}

/**
 * The paper's cell testbenches (fig06/fig08 inverter flavors): the
 * adaptive default must reproduce fixed-step switching waveforms
 * within the documented tolerance.
 */
TEST(AdaptiveTransient, InverterDelaysMatchFixedStep)
{
    for (const auto kind :
         {cells::InverterKind::PseudoE, cells::InverterKind::BiasedLoad}) {
        cells::CellFactory factory;
        const auto run_mode = [&](bool fixed) {
            cells::BuiltCell cell =
                factory.inverter(kind, 4.0 * factory.inputCap());
            cell.ckt.setSourceWave(
                cell.inputSources[0],
                Pwl::pulse(0.0, cell.supply.vdd, 20e-6, 4e-6, 60e-6));
            TransientConfig config;
            config.tStop = 160e-6;
            config.dt = 0.5e-6;
            config.fixedStep = fixed;
            const auto result =
                TransientAnalysis(cell.ckt).run(config);
            return result.node(cell.out);
        };
        const Trace adaptive = run_mode(false);
        const Trace fixed = run_mode(true);
        const double vdd = cells::SupplyConfig{}.vdd;
        for (double t = 0.0; t < 160e-6; t += 2e-6)
            EXPECT_NEAR(adaptive.at(t), fixed.at(t), 0.02 * vdd)
                << cells::toString(kind) << " at t = " << t;
    }
}

/**
 * The Newton predictor: each adaptive step starts from the linear
 * extrapolation of the last two accepted points, so a switching
 * inverter converges in fewer iterations per solve than it would from
 * the previous solution, while the step sequence (steps, LTE
 * rejections) stays the one the LTE controller chose before.
 */
TEST(AdaptiveTransient, PredictorCutsNewtonIterationsPerSolve)
{
    stats::Counter &iterations = stats::counter(
        "circuit.newton.iterations", "Newton iterations executed");
    stats::Counter &solves = stats::counter("circuit.newton.solves",
                                            "Newton solves attempted");
    stats::Counter &steps = stats::counter(
        "circuit.transient.steps", "transient time steps integrated");
    stats::Counter &rejections = stats::counter(
        "circuit.transient.lte_rejections",
        "adaptive steps rejected for excess local truncation error");

    cells::CellFactory factory;
    cells::BuiltCell cell = factory.inverter(cells::InverterKind::PseudoE,
                                             4.0 * factory.inputCap());
    cell.ckt.setSourceWave(
        cell.inputSources[0],
        Pwl::pulse(0.0, cell.supply.vdd, 20e-6, 4e-6, 60e-6));
    TransientConfig config;
    config.tStop = 160e-6;
    config.dt = 0.5e-6;
    // The run solves its own t = 0 point; an identical DC solve,
    // measured alone, is subtracted so only the steps are counted.
    const std::uint64_t dc_iterations0 = iterations.value();
    const std::uint64_t dc_solves0 = solves.value();
    (void)DcAnalysis(cell.ckt, config.newton).operatingPoint();
    const std::uint64_t dc_iterations = iterations.value() - dc_iterations0;
    const std::uint64_t dc_solves = solves.value() - dc_solves0;

    const std::uint64_t iterations0 = iterations.value();
    const std::uint64_t solves0 = solves.value();
    const std::uint64_t steps0 = steps.value();
    const std::uint64_t rejections0 = rejections.value();
    (void)TransientAnalysis(cell.ckt).run(config);
    const double n_iterations = static_cast<double>(
        iterations.value() - iterations0 - dc_iterations);
    const double n_solves =
        static_cast<double>(solves.value() - solves0 - dc_solves);

    // Measured: 509 iterations over 243 solves (2.09 per solve) with
    // the predictor, 759 (3.12) when each step starts from the last
    // accepted point. The bound sits between the two.
    EXPECT_LT(n_iterations / n_solves, 2.6);
    EXPECT_EQ(steps.value() - steps0, 243u);
    EXPECT_EQ(rejections.value() - rejections0, 10u);
}

/**
 * An adaptive run ended by a stop predicate is a bit-identical prefix
 * of the full run: times, every node voltage and every source current
 * up to the first point the predicate accepts. A predicate that never
 * fires reproduces the full run.
 */
TEST(AdaptiveTransient, StopPredicateEndsRunOnAPrefix)
{
    cells::CellFactory factory;
    cells::BuiltCell cell = factory.inverter(cells::InverterKind::PseudoE,
                                             4.0 * factory.inputCap());
    const double vdd = cell.supply.vdd;
    cell.ckt.setSourceWave(cell.inputSources[0],
                           Pwl::pulse(0.0, vdd, 20e-6, 4e-6, 60e-6));
    TransientConfig config;
    config.tStop = 160e-6;
    config.dt = 0.5e-6;
    const auto full = TransientAnalysis(cell.ckt).run(config);

    // Stop where the (slow, loaded) output falls past 80 % of VDD.
    const std::size_t out = static_cast<std::size_t>(cell.out);
    const auto stopped = TransientAnalysis(cell.ckt).run(
        config, [&](double, const std::vector<double> &v) {
            return v[out] < 0.8 * vdd;
        });
    const auto never = TransientAnalysis(cell.ckt).run(
        config, [](double, const std::vector<double> &) {
            return false;
        });

    const std::size_t n = stopped.time().size();
    ASSERT_GT(n, 2u);
    ASSERT_LT(n, full.time().size());
    EXPECT_LT(stopped.node(cell.out).value[n - 1], 0.8 * vdd);
    EXPECT_GE(stopped.node(cell.out).value[n - 2], 0.8 * vdd);
    EXPECT_TRUE(std::equal(stopped.time().begin(), stopped.time().end(),
                           full.time().begin()));
    for (NodeId node = 0;
         node < static_cast<NodeId>(cell.ckt.numNodes()); ++node) {
        const Trace part = stopped.node(node);
        const Trace whole = full.node(node);
        EXPECT_TRUE(std::equal(part.value.begin(), part.value.end(),
                               whole.value.begin()))
            << "node " << node;
    }
    for (SourceId src = 0;
         src < static_cast<SourceId>(cell.ckt.voltageSources().size());
         ++src) {
        const Trace part = stopped.source(src);
        EXPECT_TRUE(std::equal(part.value.begin(), part.value.end(),
                               full.source(src).value.begin()))
            << "source " << src;
    }

    EXPECT_EQ(never.time(), full.time());
    for (NodeId node = 0;
         node < static_cast<NodeId>(cell.ckt.numNodes()); ++node)
        EXPECT_EQ(never.node(node).value, full.node(node).value)
            << "node " << node;
}

} // namespace
} // namespace otft::circuit
