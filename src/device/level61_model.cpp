#include "device/level61_model.hpp"

#include <algorithm>
#include <cmath>

namespace otft::device {

namespace {

/** Numerically safe softplus: s * ln(1 + exp(x / s)). */
double
softplus(double x, double s)
{
    const double z = x / s;
    if (z > 40.0)
        return x;
    if (z < -40.0)
        return s * std::exp(z);
    return s * std::log1p(std::exp(z));
}

} // namespace

double
Level61Model::effectiveVt(double vds) const
{
    const double excess =
        std::clamp(vds - params_.vdsRef, 0.0, params_.diblVmax);
    return params_.vt0 - params_.dibl * excess;
}

double
Level61Model::forwardCurrent(double vgs, double vds) const
{
    const Level61Params &p = params_;
    const double ln10 = 2.302585092994046;

    // Smooth overdrive that rolls off at the target subthreshold slope.
    // Deep below threshold the device is saturated (vsat ~ vov), so the
    // current goes as vov_eff^(2 + gamma); the scale s is chosen so the
    // resulting log-current slope equals ss V/decade.
    const double s = p.ss * (2.0 + p.gamma) / ln10;
    const double vov = softplus(vgs - effectiveVt(vds), s);

    // Power-law field-effect mobility (RPI GAMMA/VAA form).
    const double mobility = p.u0 * std::pow(vov / p.vaa, p.gamma);

    // Soft saturation knee at vsat = alphaSat * vov.
    const double vsat = p.alphaSat * vov;
    const double ratio = vds / vsat;
    const double vdse =
        vds / std::pow(1.0 + std::pow(ratio, p.mSat), 1.0 / p.mSat);

    const double gch = geometry().aspect() * mobility * geometry().ci * vov;
    const double channel = gch * vdse * (1.0 + p.lambda * vds);

    // Smooth, S/D-antisymmetric leakage floor.
    const double leak = p.iOff * std::tanh(vds);

    return channel + leak;
}

} // namespace otft::device
