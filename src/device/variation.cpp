#include "device/variation.hpp"

#include <algorithm>
#include <cmath>

namespace otft::device {

namespace {

double
clampMagnitude(double v, double max_abs)
{
    return std::clamp(v, -max_abs, max_abs);
}

} // namespace

DieVariation
VariationModel::sampleDie(StreamRng &rng) const
{
    DieVariation die;
    die.dVt = rng.normal(0.0, config_.dieVtSigma);
    die.dLnMobility = rng.normal(0.0, config_.dieMobilityLnSigma);
    return die;
}

Level61Params
VariationModel::apply(const Level61Params &nominal, double d_vt,
                      double d_ln_u0, double d_decades) const
{
    Level61Params p = nominal;
    p.vt0 = nominal.vt0 + clampMagnitude(d_vt, config_.vtShiftMax);
    const double u_factor =
        std::clamp(std::exp(d_ln_u0), config_.mobilityFactorMin,
                   config_.mobilityFactorMax);
    p.u0 = nominal.u0 * u_factor;
    p.iOff =
        nominal.iOff *
        std::pow(10.0,
                 clampMagnitude(d_decades, config_.leakageDecadeMax));
    return p;
}

Level61Params
VariationModel::sample(const Level61Params &nominal, StreamRng &rng) const
{
    return sample(nominal, DieVariation{}, rng);
}

Level61Params
VariationModel::sample(const Level61Params &nominal,
                       const DieVariation &die, StreamRng &rng) const
{
    return apply(nominal,
                 die.dVt + rng.normal(0.0, config_.vtSigma),
                 die.dLnMobility +
                     rng.normal(0.0, config_.mobilityLnSigma),
                 rng.normal(0.0, config_.leakageDecadeSigma));
}

} // namespace otft::device
