#include "device/level61_model.hpp"

#include <algorithm>
#include <cmath>

namespace otft::device {

namespace {

/**
 * Numerically safe softplus: s * ln(1 + exp(x / s)). When `slope` is
 * non-null it receives the derivative in x, e^z / (1 + e^z) with
 * z = x / s, in the same branch as the value.
 */
double
softplus(double x, double s, double *slope)
{
    const double z = x / s;
    if (z > 40.0) {
        if (slope != nullptr)
            *slope = 1.0;
        return x;
    }
    const double ez = std::exp(z);
    if (z < -40.0) {
        if (slope != nullptr)
            *slope = ez;
        return s * ez;
    }
    if (slope != nullptr)
        *slope = ez / (1.0 + ez);
    return s * std::log1p(ez);
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
    return forward<false>(vgs, vds).id;
}

TransistorModel::Evaluation
Level61Model::forwardEvaluate(double vgs, double vds) const
{
    return forward<true>(vgs, vds);
}

template <bool Slopes>
TransistorModel::Evaluation
Level61Model::forward(double vgs, double vds) const
{
    const Level61Params &p = params_;
    const double ln10 = 2.302585092994046;

    // Smooth overdrive that rolls off at the target subthreshold slope.
    // Deep below threshold the device is saturated (vsat ~ vov), so the
    // current goes as vov_eff^(2 + gamma); the scale s is chosen so the
    // resulting log-current slope equals ss V/decade.
    const double s = p.ss * (2.0 + p.gamma) / ln10;
    double vov_slope = 0.0; // dvov / d(vgs - vt)
    const double vov = softplus(vgs - effectiveVt(vds), s,
                                Slopes ? &vov_slope : nullptr);

    // Power-law field-effect mobility (RPI GAMMA/VAA form).
    const double mobility = p.u0 * std::pow(vov / p.vaa, p.gamma);

    // Soft saturation knee at vsat = alphaSat * vov:
    // vdse = vds / q^(1/4) with q = 1 + (vds / vsat)^4, the RPI
    // model's knee sharpness M fixed at 4 (two sqrt, no pow).
    const double vsat = p.alphaSat * vov;
    const double ratio = vds / vsat;
    const double r2 = ratio * ratio;
    const double q = 1.0 + r2 * r2;
    const double q_root = std::sqrt(std::sqrt(q));
    const double vdse = vds / q_root;

    const double gch = geometry().aspect() * mobility * geometry().ci * vov;
    const double clm = 1.0 + p.lambda * vds;
    const double channel = gch * vdse * clm;

    // Smooth, S/D-antisymmetric leakage floor.
    const double th = std::tanh(vds);
    const double leak = p.iOff * th;

    Evaluation e;
    e.id = channel + leak;
    if constexpr (Slopes) {
        // d channel / d vov at fixed vds: gch goes as vov^(1 + gamma),
        // and vdse gains vdse * r^4 / (q * vov) as the knee moves out.
        // r^4 / q is written 1 - 1/q, which stays finite when r^4
        // overflows.
        const double d_vov = geometry().aspect() * geometry().ci *
                             mobility * vdse * clm *
                             ((1.0 + p.gamma) + (1.0 - 1.0 / q));
        // The threshold moves with vds only inside the DIBL window.
        const double excess = vds - p.vdsRef;
        const double dibl =
            excess > 0.0 && excess < p.diblVmax ? p.dibl : 0.0;
        e.gm = d_vov * vov_slope;
        e.gds = e.gm * dibl +
                gch * (clm / (q_root * q) + p.lambda * vdse) +
                p.iOff * (1.0 - th * th);
    }
    return e;
}

} // namespace otft::device
