#include "device/level1_model.hpp"

namespace otft::device {

double
Level1Model::forwardCurrent(double vgs, double vds) const
{
    return forwardEvaluate(vgs, vds).id;
}

TransistorModel::Evaluation
Level1Model::forwardEvaluate(double vgs, double vds) const
{
    Evaluation e;
    const double vov = vgs - params_.vt;
    if (vov <= 0.0)
        return e;

    const double kp = params_.u0 * geometry().ci * geometry().aspect();
    const double clm = 1.0 + params_.lambda * vds;
    if (vds < vov) {
        // Triode region.
        const double shape = vov * vds - 0.5 * vds * vds;
        e.id = kp * shape * clm;
        e.gm = kp * vds * clm;
        e.gds = kp * ((vov - vds) * clm + shape * params_.lambda);
        return e;
    }
    // Saturation.
    e.id = 0.5 * kp * vov * vov * clm;
    e.gm = kp * vov * clm;
    e.gds = 0.5 * kp * vov * vov * params_.lambda;
    return e;
}

} // namespace otft::device
