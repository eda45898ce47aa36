#include "device/transistor_model.hpp"

#include <cmath>

namespace otft::device {

const char *
toString(Polarity polarity)
{
    return polarity == Polarity::PType ? "p" : "n";
}

namespace {

/** A bias mapped onto the forward (n-type, vds >= 0) frame. */
struct ForwardBias
{
    double vgs;
    double vds;
    /** -1 for a p-type device: the current changes sign. */
    double sign;
    /** Source and drain exchanged: the forward current is negated. */
    bool exchanged;
};

ForwardBias
toForward(Polarity polarity, double vgs, double vds)
{
    ForwardBias f{vgs, vds, 1.0, false};
    if (polarity == Polarity::PType) {
        f.vgs = -vgs;
        f.vds = -vds;
        f.sign = -1.0;
    }
    if (f.vds < 0.0) {
        // Source/drain exchange: gate references the other terminal.
        f.vgs -= f.vds;
        f.vds = -f.vds;
        f.exchanged = true;
    }
    return f;
}

} // namespace

double
TransistorModel::drainCurrent(double vgs, double vds) const
{
    const ForwardBias f = toForward(polarity_, vgs, vds);
    const double i = forwardCurrent(f.vgs, f.vds);
    return f.sign * (f.exchanged ? -i : i);
}

TransistorModel::Evaluation
TransistorModel::evaluate(double vgs, double vds) const
{
    const ForwardBias f = toForward(polarity_, vgs, vds);
    const Evaluation e = forwardEvaluate(f.vgs, f.vds);
    // The polarity sign cancels in both derivatives (the device and
    // forward voltages differ by the same sign as the currents). An
    // exchange evaluates F(a, b) at a = vgs - vds, b = -vds and
    // negates it, so gm = -dF/da and gds = dF/da + dF/db.
    if (f.exchanged)
        return {f.sign * -e.id, -e.gm, e.gm + e.gds};
    return {f.sign * e.id, e.gm, e.gds};
}

} // namespace otft::device
