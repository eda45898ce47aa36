#include "device/transistor_model.hpp"

#include <cmath>

namespace otft::device {

const char *
toString(Polarity polarity)
{
    return polarity == Polarity::PType ? "p" : "n";
}

double
TransistorModel::drainCurrent(double vgs, double vds) const
{
    // Map the device frame onto the forward (n-type, vds >= 0) frame.
    double vgs_f = vgs;
    double vds_f = vds;
    double sign = 1.0;
    if (polarity_ == Polarity::PType) {
        vgs_f = -vgs;
        vds_f = -vds;
        sign = -1.0;
    }
    if (vds_f < 0.0) {
        // Source/drain exchange: gate references the other terminal.
        return sign * -forwardCurrent(vgs_f - vds_f, -vds_f);
    }
    return sign * forwardCurrent(vgs_f, vds_f);
}

double
TransistorModel::gm(double vgs, double vds) const
{
    constexpr double h = fdStep;
    return (drainCurrent(vgs + h, vds) - drainCurrent(vgs - h, vds)) /
           (2.0 * h);
}

double
TransistorModel::gds(double vgs, double vds) const
{
    constexpr double h = fdStep;
    return (drainCurrent(vgs, vds + h) - drainCurrent(vgs, vds - h)) /
           (2.0 * h);
}

} // namespace otft::device
