#include "device/level1_model.hpp"

#include <algorithm>

namespace otft::device {

double
Level1Model::forwardCurrent(double vgs, double vds) const
{
    const double vov = vgs - params_.vt;
    if (vov <= 0.0)
        return 0.0;

    const double kp = params_.u0 * geometry().ci * geometry().aspect();
    const double clm = 1.0 + params_.lambda * vds;
    if (vds < vov) {
        // Triode region.
        return kp * (vov * vds - 0.5 * vds * vds) * clm;
    }
    // Saturation.
    return 0.5 * kp * vov * vov * clm;
}

} // namespace otft::device
