/**
 * @file
 * Monte Carlo NLDM characterization under process variation.
 *
 * The paper names cross-sample variation (VT spread "within 0.5 V",
 * Sec. 1) as a core OTFT challenge, but a single characterized
 * library hides it: every downstream number (Figs. 11-15) is a
 * nominal-process number. This module re-derives the library
 * statistically: N process samples are drawn (a die-to-die component
 * shared by every device on a sample plus an independent per-device
 * component per cell instance), each sample is characterized with the
 * transistor-level flow, and the per-arc distribution is reduced to
 *
 *  - a *mean* library (the expected process),
 *  - per-arc sigma tables, and
 *  - derated slow/fast corner libraries at `cornerSigma` (3)
 *    standard deviations, the statistical analogue of the SS/FF
 *    corners a foundry PDK ships.
 *
 * Determinism contract: every sampled parameter set is a pure
 * function of (seed, sample index, cell name) via counter-based
 * StreamRng substreams, and samples are assembled with orderedMap, so
 * the statistical library is bit-identical across `--jobs` and
 * chunking. Per-arc transients are memoized in the process result
 * cache exactly like the nominal flow — the sampled device parameters
 * (derived from the seed) are part of every cache key.
 */

#ifndef OTFT_LIBERTY_MC_CHARACTERIZER_HPP
#define OTFT_LIBERTY_MC_CHARACTERIZER_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "liberty/characterizer.hpp"

namespace otft::liberty {

/** Standard deviations the slow/fast corners are derated by. */
inline constexpr double cornerSigma = 3.0;

/**
 * Monte Carlo characterization settings. Every sample is drawn around
 * the default pentacene device and characterized at the default
 * sizing and supply; the variation enables both correlation scales,
 * the published within-sample spread as the per-device component and
 * a deposition-run die-to-die component on top.
 */
struct McConfig
{
    /** Process samples to characterize. */
    int samples = 16;
    /** Master seed; every substream derives from it. */
    std::uint64_t seed = 1;
    /** Characterization grid for every sample. */
    CharacterizerConfig grid = mcDefaultGrid();
    /** Cells to characterize (subset for tests; "dff" = the flop). */
    std::vector<std::string> roster = {"inv",  "nand2", "nand3",
                                       "nor2", "nor3",  "dff"};

    /** Nominal grid with the MC settling margin applied. */
    static CharacterizerConfig mcDefaultGrid();
};

/** Mean/sigma tables of one timing arc, indexed by Sense. */
struct ArcStats
{
    std::string fromPin;
    NldmTable delayMean[2];
    NldmTable delaySigma[2];
    NldmTable slewMean[2];
    NldmTable slewSigma[2];
};

/** Distribution summary of one cell across the process samples. */
struct CellStats
{
    std::string name;
    double leakageMean = 0.0;
    double leakageSigma = 0.0;
    /** Sequential parameter spread (valid for the flop). */
    double clkToQMean = 0.0;
    double clkToQSigma = 0.0;
    double setupMean = 0.0;
    double setupSigma = 0.0;
    double holdMean = 0.0;
    double holdSigma = 0.0;
    std::vector<ArcStats> arcs;

    /**
     * Mean relative delay sigma over every arc table entry — the
     * single-number "how variable is this cell" summary used by
     * reports.
     */
    double meanDelaySigmaFraction() const;
};

/** The statistical library: corners plus the per-arc distributions. */
struct StatLibrary
{
    CellLibrary mean;
    CellLibrary slow;
    CellLibrary fast;
    std::vector<CellStats> cells;
    int samples = 0;
    std::uint64_t seed = 0;
};

/** Runs the Monte Carlo characterization. */
class McCharacterizer
{
  public:
    explicit McCharacterizer(McConfig config = {});

    /**
     * Characterize `samples` process draws of every roster cell and
     * reduce to the statistical library. Samples x cells fan out over
     * the worker pool; the result is identical at any job count.
     */
    StatLibrary run() const;

    /** The sampled device parameters of one (sample, cell) pair. */
    device::Level61Params sampleParams(int sample,
                                       const std::string &cell) const;

    const McConfig &config() const { return config_; }

  private:
    McConfig config_;
};

/**
 * Analytic corner derivation for technologies without a Monte Carlo
 * flow: every delay/slew table entry and every scalar (leakage,
 * clk->Q, setup, hold) of `base` becomes a mean equal to its value
 * with a sigma of `sigmaFraction` times its magnitude, and the corners
 * are built from those statistics exactly as the Monte Carlo corners
 * are. Used for the silicon library, whose corner spread is a known
 * small fraction (mature-process SS/FF corners), and by tests that
 * need cheap corners. Corner names default to `base.name() + "_mc"`.
 */
StatLibrary scaledCorners(const CellLibrary &base, double sigmaFraction,
                          const std::string &baseName = "");

/**
 * Validate a statistical-library triple: finite (NaN-free) tables and
 * monotone deration (slow >= mean >= fast for every delay/slew entry,
 * leakage, and sequential parameter). Returns a human-readable error
 * for the first violation, or an empty string when valid.
 */
std::string validateStatLibrary(const CellLibrary &mean,
                                const CellLibrary &slow,
                                const CellLibrary &fast);

} // namespace otft::liberty

#endif // OTFT_LIBERTY_MC_CHARACTERIZER_HPP
