#include "util/optimize.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"

namespace otft {

OptimizeResult
nelderMead(const Objective &objective, std::vector<double> x0,
           const NelderMeadOptions &options)
{
    const std::size_t n = x0.size();
    if (n == 0)
        fatal("nelderMead: empty parameter vector");

    int evals = 0;
    auto eval = [&](const std::vector<double> &x) {
        ++evals;
        return objective(x);
    };

    // Build the initial simplex: x0 plus one perturbed vertex per axis.
    std::vector<std::vector<double>> simplex;
    simplex.push_back(x0);
    for (std::size_t i = 0; i < n; ++i) {
        auto v = x0;
        const double step =
            std::max(std::abs(v[i]) * options.initialScale, 1e-4);
        v[i] += step;
        simplex.push_back(std::move(v));
    }
    std::vector<double> values;
    values.reserve(simplex.size());
    for (const auto &v : simplex)
        values.push_back(eval(v));

    auto order = [&]() {
        std::vector<std::size_t> idx(simplex.size());
        for (std::size_t i = 0; i < idx.size(); ++i)
            idx[i] = i;
        std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
            return values[a] < values[b];
        });
        std::vector<std::vector<double>> s2;
        std::vector<double> v2;
        for (auto i : idx) {
            s2.push_back(simplex[i]);
            v2.push_back(values[i]);
        }
        simplex = std::move(s2);
        values = std::move(v2);
    };

    constexpr double alpha = 1.0;  // reflection
    constexpr double gamma = 2.0;  // expansion
    constexpr double rho = 0.5;    // contraction
    constexpr double sigma = 0.5;  // shrink

    bool converged = false;
    while (evals < options.maxEvals) {
        order();
        if (values.back() - values.front() < options.tolerance) {
            converged = true;
            break;
        }

        // Centroid of all but the worst vertex.
        std::vector<double> centroid(n, 0.0);
        for (std::size_t i = 0; i + 1 < simplex.size(); ++i)
            for (std::size_t j = 0; j < n; ++j)
                centroid[j] += simplex[i][j];
        for (auto &c : centroid)
            c /= static_cast<double>(n);

        auto blend = [&](double coeff) {
            std::vector<double> v(n);
            for (std::size_t j = 0; j < n; ++j)
                v[j] = centroid[j] + coeff * (centroid[j] - simplex.back()[j]);
            return v;
        };

        const auto reflected = blend(alpha);
        const double f_reflected = eval(reflected);

        if (f_reflected < values.front()) {
            const auto expanded = blend(gamma);
            const double f_expanded = eval(expanded);
            if (f_expanded < f_reflected) {
                simplex.back() = expanded;
                values.back() = f_expanded;
            } else {
                simplex.back() = reflected;
                values.back() = f_reflected;
            }
        } else if (f_reflected < values[values.size() - 2]) {
            simplex.back() = reflected;
            values.back() = f_reflected;
        } else {
            const auto contracted = blend(-rho);
            const double f_contracted = eval(contracted);
            if (f_contracted < values.back()) {
                simplex.back() = contracted;
                values.back() = f_contracted;
            } else {
                // Shrink toward the best vertex.
                for (std::size_t i = 1; i < simplex.size(); ++i) {
                    for (std::size_t j = 0; j < n; ++j) {
                        simplex[i][j] = simplex[0][j] +
                            sigma * (simplex[i][j] - simplex[0][j]);
                    }
                    values[i] = eval(simplex[i]);
                }
            }
        }
    }

    order();
    OptimizeResult result;
    result.x = simplex.front();
    result.value = values.front();
    result.evals = evals;
    result.converged = converged;
    return result;
}

} // namespace otft
