/**
 * @file
 * Small numerical helpers shared across modules: the mean,
 * the standard normal CDF and quantile, ordinary least squares
 * regression, linear interpolation, and root bracketing on sampled
 * curves.
 */

#ifndef OTFT_UTIL_STATS_HPP
#define OTFT_UTIL_STATS_HPP

#include <cstddef>
#include <span>
#include <vector>

namespace otft {

/** Result of an ordinary least squares line fit y = slope * x + intercept. */
struct LineFit
{
    double slope = 0.0;
    double intercept = 0.0;
    /** Coefficient of determination in [0, 1]. */
    double r2 = 0.0;

    /** Evaluate the fitted line. */
    double eval(double x) const { return slope * x + intercept; }

    /** Solve the fitted line for x given y. Requires slope != 0. */
    double solveFor(double y) const { return (y - intercept) / slope; }
};

/** Ordinary least squares over paired samples. Requires >= 2 points. */
LineFit fitLine(std::span<const double> xs, std::span<const double> ys);

/** Arithmetic mean. Requires a non-empty span. */
double mean(std::span<const double> xs);

/** Standard normal CDF (exact, via erfc). */
double normalCdf(double z);

/**
 * Standard normal quantile (inverse CDF), |error| < 1.2e-9 over
 * (0, 1) via Acklam's rational approximation plus one Halley
 * refinement step. Fatal outside (0, 1).
 */
double normalQuantile(double p);

/**
 * Piecewise-linear interpolation of y(x) on a sampled curve with
 * strictly increasing xs. Clamps outside the sampled range.
 */
double interpolate(std::span<const double> xs, std::span<const double> ys,
                   double x);

/**
 * Find all x where the sampled curve y(x) crosses the given level,
 * using linear interpolation inside each bracketing segment. xs must be
 * strictly increasing.
 */
std::vector<double> findCrossings(std::span<const double> xs,
                                  std::span<const double> ys, double level);

/**
 * Numerical derivative dy/dx of a sampled curve via central differences
 * (one-sided at the ends). Result has the same length as the inputs.
 */
std::vector<double> gradient(std::span<const double> xs,
                             std::span<const double> ys);

/** Linearly spaced samples from lo to hi inclusive. Requires n >= 2. */
std::vector<double> linspace(double lo, double hi, std::size_t n);

} // namespace otft

#endif // OTFT_UTIL_STATS_HPP
