/**
 * @file
 * Abstract transistor model interface.
 *
 * All models expose a signed drain current as a function of terminal
 * voltages in the device's native sign convention: for a p-type device
 * (the pentacene OTFT) the channel conducts for negative VGS and the
 * drain current flows out of the drain (negative ID for negative VDS).
 *
 * Models are implemented internally in a "forward" n-type-like frame
 * and mirrored for p-type, which keeps the equations readable and makes
 * the same code serve both polarities.
 *
 * Each model gives its current twice: alone (forwardCurrent, what a
 * chord Newton iteration needs) and with its closed-form partial
 * derivatives (forwardEvaluate, what a Jacobian build needs), both from
 * one expression sequence so the two currents are the same bits. The
 * base class maps a bias onto the forward frame once for either. The
 * derivatives are checked against a finite-difference oracle in the
 * tests; no production path differentiates numerically.
 */

#ifndef OTFT_DEVICE_TRANSISTOR_MODEL_HPP
#define OTFT_DEVICE_TRANSISTOR_MODEL_HPP

#include <memory>
#include <string>

namespace otft::device {

/** Channel polarity. */
enum class Polarity { PType, NType };

/** @return "p" or "n". */
const char *toString(Polarity polarity);

/** Shared geometric description of a planar FET. */
struct Geometry
{
    /** Channel width in meters. */
    double w = 1000e-6;
    /** Channel length in meters. */
    double l = 80e-6;
    /** Gate dielectric capacitance per area in F/m^2. */
    double ci = 1.42e-3;

    /** @return the W/L aspect ratio. */
    double aspect() const { return w / l; }

    /** @return total gate capacitance Ci * W * L in farads. */
    double gateCap() const { return ci * w * l; }
};

/**
 * A three-terminal FET model evaluated at a DC operating point.
 *
 * Implementations must be symmetric under source/drain exchange:
 * id(vgs, vds) == -id(vgs - vds, -vds). The base class provides that
 * mirroring plus the polarity transform; subclasses implement only the
 * forward-frame current, and its derivatives, for vds >= 0.
 */
class TransistorModel
{
  public:
    TransistorModel(Polarity polarity, Geometry geometry)
        : polarity_(polarity), geometry_(geometry)
    {}

    virtual ~TransistorModel() = default;

    /** Model family name ("level1", "level61", ...). */
    virtual std::string name() const = 0;

    /** The drain current and its two small-signal conductances. */
    struct Evaluation
    {
        /** Drain current, amperes (drainCurrent()). */
        double id = 0.0;
        /** Transconductance dId/dVgs, siemens. */
        double gm = 0.0;
        /** Output conductance dId/dVds, siemens. */
        double gds = 0.0;
    };

    /**
     * Signed drain current at the given gate-source and drain-source
     * voltages, in amperes, in the device's native convention.
     */
    double drainCurrent(double vgs, double vds) const;

    /**
     * The current and both conductances at one bias: the one device
     * call a Newton Jacobian assembly makes per FET. The derivatives
     * are the model's closed-form ones (forwardEvaluate()), mirrored
     * once for a source/drain exchange; id equals drainCurrent() bit
     * for bit. Virtual only so a test can put a finite-difference
     * reference in its place.
     */
    virtual Evaluation evaluate(double vgs, double vds) const;

    /** Transconductance dId/dVgs (evaluate().gm). */
    double gm(double vgs, double vds) const
    {
        return evaluate(vgs, vds).gm;
    }

    /** Output conductance dId/dVds (evaluate().gds). */
    double gds(double vgs, double vds) const
    {
        return evaluate(vgs, vds).gds;
    }

    Polarity polarity() const { return polarity_; }
    const Geometry &geometry() const { return geometry_; }

  protected:
    /**
     * Forward-frame current for a conceptual n-type device with
     * vds >= 0. @param vgs forward gate overdrive reference,
     * @param vds forward drain-source voltage (non-negative).
     */
    virtual double forwardCurrent(double vgs, double vds) const = 0;

    /**
     * forwardCurrent() with its partial derivatives: `gm` = dF/dvgs
     * and `gds` = dF/dvds, both in the forward frame. `id` must be
     * forwardCurrent()'s value bit for bit.
     */
    virtual Evaluation forwardEvaluate(double vgs, double vds) const = 0;

  private:
    Polarity polarity_;
    Geometry geometry_;
};

using TransistorModelPtr = std::shared_ptr<const TransistorModel>;

} // namespace otft::device

#endif // OTFT_DEVICE_TRANSISTOR_MODEL_HPP
