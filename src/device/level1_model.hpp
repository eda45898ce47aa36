/**
 * @file
 * SPICE level-1 (Shichman-Hodges) MOSFET model.
 *
 * The paper uses the level-1 model as the fast, qualitative fit to the
 * measured pentacene transfer curve (paper Fig. 4). It captures carrier
 * mobility and threshold voltage but has no subthreshold conduction or
 * leakage, which is exactly why it underfits the measured curve below
 * threshold.
 */

#ifndef OTFT_DEVICE_LEVEL1_MODEL_HPP
#define OTFT_DEVICE_LEVEL1_MODEL_HPP

#include "device/transistor_model.hpp"

namespace otft::device {

/** Parameters of the Shichman-Hodges model (forward frame). */
struct Level1Params
{
    /**
     * Threshold voltage magnitude in the forward frame, volts. For the
     * p-type pentacene device with VT = -1.3 V this is +1.3 V.
     */
    double vt = 1.3;
    /** Low-field mobility in m^2/(V s). 0.16 cm^2/Vs = 0.16e-4. */
    double u0 = 0.16e-4;
    /** Channel length modulation, 1/V. */
    double lambda = 0.01;
};

/** Square-law FET: off below VT, quadratic saturation above. */
class Level1Model : public TransistorModel
{
  public:
    Level1Model(Polarity polarity, Geometry geometry, Level1Params params)
        : TransistorModel(polarity, geometry), params_(params)
    {}

    std::string name() const override { return "level1"; }

    const Level1Params &params() const { return params_; }

  protected:
    double forwardCurrent(double vgs, double vds) const override;
    Evaluation forwardEvaluate(double vgs, double vds) const override;

  private:
    Level1Params params_;
};

} // namespace otft::device

#endif // OTFT_DEVICE_LEVEL1_MODEL_HPP
