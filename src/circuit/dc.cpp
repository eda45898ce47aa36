#include "circuit/dc.hpp"

#include <cmath>

#include "util/diag.hpp"
#include "util/logging.hpp"
#include "util/trace.hpp"

namespace otft::circuit {

DcAnalysis::DcAnalysis(Circuit &circuit, NewtonConfig config)
    : ckt(circuit), mna(circuit, config)
{
}

Solution
DcAnalysis::operatingPoint()
{
    return operatingPoint(mna.zeroSolution());
}

Solution
DcAnalysis::operatingPoint(const Solution &initial_guess)
{
    static const diag::Counter stat_solves(
        "circuit.dc.solves", "DC operating points computed");
    static const diag::Counter stat_source_step(
        "circuit.dc.source_stepping",
        "operating points that needed source-stepping homotopy");
    static const diag::Counter stat_gmin_step(
        "circuit.dc.gmin_stepping",
        "operating points that needed gmin stepping");
    OTFT_TRACE_SCOPE("circuit.dc.solve");

    stat_solves.add();
    Solution x = initial_guess;
    if (mna.solveNewton(x, 0.0, 1.0, 0.0, nullptr))
        return x;
    stat_source_step.add();

    // Source-stepping homotopy: ramp all sources from zero with a
    // quadratic schedule (fine steps near zero, where strongly
    // nonlinear circuits are touchiest), warm starting each step.
    bool stepped = true;
    x = mna.zeroSolution();
    constexpr int steps = 60;
    for (int k = 1; k <= steps; ++k) {
        const double frac = static_cast<double>(k) / steps;
        const double scale = frac * frac;
        if (!mna.solveNewton(x, 0.0, scale, 0.0, nullptr)) {
            stepped = false;
            break;
        }
    }
    if (stepped)
        return x;

    // Gmin-stepping fallback: solve with a large leak conductance to
    // ground (which linearizes the system), then relax it toward the
    // configured gmin, warm starting throughout — the same
    // continuation SPICE uses when source stepping fails.
    stat_gmin_step.add();
    x = mna.zeroSolution();
    NewtonConfig relaxed = mna.config();
    bool have_solution = false;
    for (double gmin : {1e-3, 1e-5, 1e-7, 1e-9, relaxed.gmin}) {
        NewtonConfig stage_config = mna.config();
        stage_config.gmin = gmin;
        Mna stage(ckt, stage_config);
        if (!stage.solveNewton(x, 0.0, 1.0, 0.0, nullptr)) {
            have_solution = false;
            break;
        }
        have_solution = true;
    }
    if (have_solution)
        return x;

    fatal("DcAnalysis: Newton, source stepping, and gmin stepping "
          "all failed to converge");
}

SweepResult
DcAnalysis::sweepSource(SourceId source,
                        const std::vector<double> &values)
{
    const Pwl saved = ckt.voltageSources()[
        static_cast<std::size_t>(source)].wave;

    SweepResult result;
    result.values = values;
    result.solutions.reserve(values.size());

    Solution x = mna.zeroSolution();
    bool have_prev = false;
    for (double v : values) {
        ckt.setSourceWave(source, Pwl::constant(v));
        x = have_prev ? operatingPoint(x) : operatingPoint();
        have_prev = true;
        result.solutions.push_back(x);
    }

    ckt.setSourceWave(source, saved);
    return result;
}

double
DcAnalysis::totalSourcePower(const Solution &x) const
{
    double power = 0.0;
    const auto &vsources = mna.circuit().voltageSources();
    for (std::size_t k = 0; k < vsources.size(); ++k) {
        const double v = vsources[k].wave.dc();
        const double i = mna.sourceCurrent(x, static_cast<SourceId>(k));
        // Current `i` leaves the positive terminal: power delivered by
        // the source is v * i.
        power += v * i;
    }
    return power;
}

} // namespace otft::circuit
