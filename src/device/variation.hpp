/**
 * @file
 * Process variation sampling.
 *
 * Organic semiconductors have low uniformity: the paper quotes a VT
 * spread within 0.5 V across a sample and cites significant current
 * variation as one of the four core OTFT challenges (Sec. 1). This
 * module samples per-device parameter sets around the golden values so
 * circuits and Monte Carlo tests can quantify robustness (e.g. noise
 * margin under variation, the paper's motivation for the VSS-tunable
 * pseudo-E switching threshold).
 *
 * Two correlation scales are modeled, following the standard
 * die-to-die / within-die split: a *die* component shared by every
 * device fabricated on one sample (deposition-run shifts — what a
 * per-board VSS trim compensates), and a *per-device* component drawn
 * independently for each transistor set on top of the die shift. The
 * Monte Carlo characterizer draws the die component once per sample
 * and the device component once per cell instance, both from
 * counter-based StreamRng substreams so results are independent of
 * evaluation order.
 */

#ifndef OTFT_DEVICE_VARIATION_HPP
#define OTFT_DEVICE_VARIATION_HPP

#include "device/level61_model.hpp"
#include "util/stream_rng.hpp"

namespace otft::device {

/** Distribution widths for organic process variation. */
struct VariationConfig
{
    /**
     * Std deviation of the per-device VT shift, volts. The published
     * "spread within 0.5 V" is read as a +/-2 sigma band ->
     * sigma = 0.125 V.
     */
    double vtSigma = 0.125;
    /** Sigma of per-device ln(mobility) — log-normal variation. */
    double mobilityLnSigma = 0.10;
    /** Sigma of ln(iOff) in decades of leakage variation. */
    double leakageDecadeSigma = 0.3;

    /**
     * Die-to-die (sample-to-sample) correlated components, shared by
     * every device on one die. Zero by default so single-device
     * studies keep the historical distribution; the MC characterizer
     * enables them for yield analysis.
     */
    double dieVtSigma = 0.0;
    double dieMobilityLnSigma = 0.0;

    /**
     * Model-valid clamp ranges. Unbounded normal draws can push the
     * compact model outside the region it was calibrated in (negative
     * effective mobility headroom, leakage above the on-current),
     * which the circuit solver then faithfully simulates as garbage.
     * Draws are clamped to these bands around nominal; at the default
     * sigmas a clamp engages only beyond ~5-sigma draws.
     */
    /** Max |VT shift| from nominal (die + device combined), volts. */
    double vtShiftMax = 1.5;
    /** Mobility multiplier band around nominal. */
    double mobilityFactorMin = 0.05;
    double mobilityFactorMax = 8.0;
    /** Max |log10 shift| of the leakage floor, decades. */
    double leakageDecadeMax = 2.0;
};

/** The correlated component shared by every device on one die. */
struct DieVariation
{
    /** VT shift, volts. */
    double dVt = 0.0;
    /** ln(mobility) shift. */
    double dLnMobility = 0.0;
};

/**
 * Samples varied device parameter sets. Draws come from a
 * caller-provided StreamRng, so they are deterministic given its seed
 * and path and independent of evaluation order across threads.
 */
class VariationModel
{
  public:
    explicit VariationModel(VariationConfig config = {})
        : config_(config)
    {}

    /** Draw the die-to-die component (two normal draws). */
    DieVariation sampleDie(StreamRng &rng) const;

    /**
     * Draw one varied parameter set around the nominal values
     * (per-device component only, die = 0).
     */
    Level61Params sample(const Level61Params &nominal,
                         StreamRng &rng) const;

    /** Per-device draw on top of a shared die component. */
    Level61Params sample(const Level61Params &nominal,
                         const DieVariation &die, StreamRng &rng) const;

    const VariationConfig &config() const { return config_; }

  private:
    /**
     * Apply raw shift draws (VT volts, ln-mobility, leakage decades)
     * to the nominal set, clamped to the model-valid ranges.
     */
    Level61Params apply(const Level61Params &nominal, double d_vt,
                        double d_ln_u0, double d_decades) const;

    VariationConfig config_;
};

} // namespace otft::device

#endif // OTFT_DEVICE_VARIATION_HPP
