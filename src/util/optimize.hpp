/**
 * @file
 * Derivative-free minimization: the Nelder-Mead simplex for
 * multi-parameter fits (device model fitting, cell sizing).
 */

#ifndef OTFT_UTIL_OPTIMIZE_HPP
#define OTFT_UTIL_OPTIMIZE_HPP

#include <functional>
#include <vector>

namespace otft {

/** Objective over a parameter vector; smaller is better. */
using Objective = std::function<double(const std::vector<double> &)>;

/** Options controlling the Nelder-Mead search. */
struct NelderMeadOptions
{
    /** Maximum number of objective evaluations. */
    int maxEvals = 2000;
    /** Stop when the simplex value spread falls below this. */
    double tolerance = 1e-10;
    /** Initial simplex size as a fraction of each parameter (min 1e-4). */
    double initialScale = 0.1;
};

/** Result of a minimization. */
struct OptimizeResult
{
    std::vector<double> x;
    double value = 0.0;
    int evals = 0;
    bool converged = false;
};

/**
 * Minimize the objective starting from x0 with the Nelder-Mead simplex
 * method (reflection / expansion / contraction / shrink).
 */
OptimizeResult nelderMead(const Objective &objective,
                          std::vector<double> x0,
                          const NelderMeadOptions &options = {});

} // namespace otft

#endif // OTFT_UTIL_OPTIMIZE_HPP
