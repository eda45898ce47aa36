/**
 * @file
 * Jacobian accuracy contract: the closed-form device derivatives the
 * Newton solver stamps move a characterized cell's timing by no more
 * than 1e-6 relative against a central-difference Jacobian, on the
 * adaptive transient engine the characterizer uses, and take the same
 * number of Newton iterations to get there. (Newton converges to the
 * same root under a wrong Jacobian, only more slowly, so the
 * iteration count is the part of this contract a derivative error
 * breaks; the oracle in test_models.cpp pins the derivatives
 * themselves.)
 */

#include <cmath>
#include <cstdint>
#include <memory>

#include <gtest/gtest.h>

#include "circuit/transient.hpp"
#include "device/pentacene.hpp"
#include "util/stats_registry.hpp"

namespace otft::circuit {
namespace {

/**
 * The golden level-61 device with the central-difference Jacobian
 * (half-step 0.1 mV, the current evaluated five times) in place of
 * its closed-form derivatives.
 */
class StencilLevel61 : public device::Level61Model
{
  public:
    using Level61Model::Level61Model;

    Evaluation
    evaluate(double vgs, double vds) const override
    {
        constexpr double h = 1e-4;
        Evaluation e;
        e.id = drainCurrent(vgs, vds);
        e.gm = (drainCurrent(vgs + h, vds) - drainCurrent(vgs - h, vds)) /
               (2.0 * h);
        e.gds = (drainCurrent(vgs, vds + h) - drainCurrent(vgs, vds - h)) /
                (2.0 * h);
        return e;
    }
};

constexpr double vdd = 5.0;
constexpr double vss = -15.0;
constexpr double tRise = 20e-6;
constexpr double tRamp = 8e-6;
constexpr double tWidth = 300e-6;
constexpr double tFall = tRise + tRamp + tWidth;

/**
 * Delays and 20-80 % slews of one inverter's two output edges, and
 * the Newton iterations the run took.
 */
struct EdgeTiming
{
    double delayFall;
    double delayRise;
    double slewFall;
    double slewRise;
    std::uint64_t newtonIterations;
};

std::uint64_t
newtonIterations()
{
    const auto counters = stats::Registry::instance().counterSnapshot();
    const auto it = counters.find("circuit.newton.iterations");
    return it == counters.end() ? 0 : it->second;
}

/**
 * A pseudo-E inverter built by hand: a level shifter (200 um drive,
 * 5 um diode load to VSS) and an output stage (200 um drive, 75 um
 * load gated by the shifter), every FET with its gate capacitance
 * split between drain and source, an 11 pF load, and a pulse input.
 * The FETs are `Model` devices at the golden parameters.
 */
template <typename Model>
EdgeTiming
inverterTiming()
{
    const auto fet = [](double w) {
        device::Geometry g;
        g.w = w;
        g.l = 20e-6;
        g.ci = device::pentacene::ci;
        return std::make_shared<Model>(device::Polarity::PType, g,
                                       device::Level61Params{});
    };

    Circuit ckt;
    const NodeId n_vdd = ckt.addNode("vdd");
    const NodeId n_vss = ckt.addNode("vss");
    const NodeId in = ckt.addNode("in");
    const NodeId x = ckt.addNode("x");
    const NodeId out = ckt.addNode("out");
    ckt.addVoltageSource(n_vdd, Circuit::ground, vdd);
    ckt.addVoltageSource(n_vss, Circuit::ground, vss);
    ckt.addVoltageSource(in, Circuit::ground,
                         Pwl::pulse(0.0, vdd, tRise, tRamp, tWidth));
    const auto add = [&](double w, NodeId d, NodeId g, NodeId s) {
        const auto model = fet(w);
        const double cg = model->geometry().gateCap();
        ckt.addFet(model, d, g, s);
        ckt.addCapacitor(g, d, 0.5 * cg);
        ckt.addCapacitor(g, s, 0.5 * cg);
    };
    add(200e-6, x, in, n_vdd);
    add(5e-6, n_vss, n_vss, x);
    add(200e-6, out, in, n_vdd);
    add(75e-6, Circuit::ground, x, out);
    ckt.addCapacitor(out, Circuit::ground, 11.336e-12);

    TransientConfig config;
    config.dt = 1e-6;
    config.tStop = tFall + tRamp + tWidth;
    const std::uint64_t iterations_before = newtonIterations();
    const TransientResult result = TransientAnalysis(ckt).run(config);
    const std::uint64_t iterations = newtonIterations() - iterations_before;
    const Trace vin = result.node(in);
    const Trace vout = result.node(out);

    // The output swings between its settled levels before each edge.
    const double hi = vout.at(tRise);
    const double lo = vout.at(tFall);
    EXPECT_GT(hi - lo, 0.5 * vdd);
    EdgeTiming t{};
    t.delayFall = measureDelay(vin, vout, 0.0, vdd, true, lo, hi, false);
    t.delayRise = measureDelay(vin, vout, 0.0, vdd, false, lo, hi, true,
                               tFall);
    t.slewFall = measureSlew(vout, lo, hi, 0.2, 0.8, false);
    t.slewRise = measureSlew(vout, lo, hi, 0.2, 0.8, true, tFall);
    t.newtonIterations = iterations;
    return t;
}

TEST(JacobianContract, ClosedFormMatchesStencilTiming)
{
    const EdgeTiming closed = inverterTiming<device::Level61Model>();
    const EdgeTiming stencil = inverterTiming<StencilLevel61>();
    const auto expect_close = [](double got, double ref, const char *what) {
        EXPECT_GT(ref, 0.0) << what;
        EXPECT_LE(std::abs(got - ref), 1e-6 * ref)
            << what << ": closed form " << got << " s, stencil " << ref
            << " s";
    };
    expect_close(closed.delayFall, stencil.delayFall, "fall delay");
    expect_close(closed.delayRise, stencil.delayRise, "rise delay");
    expect_close(closed.slewFall, stencil.slewFall, "fall slew");
    expect_close(closed.slewRise, stencil.slewRise, "rise slew");
    EXPECT_GT(stencil.newtonIterations, 0u);
    EXPECT_EQ(closed.newtonIterations, stencil.newtonIterations);
}

} // namespace
} // namespace otft::circuit
