#include "circuit/linear_solver.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/logging.hpp"
#include "util/stats_registry.hpp"

namespace otft::circuit {

namespace {

stats::Counter &
statFactor()
{
    static stats::Counter &c = stats::counter(
        "circuit.lu.factorizations", "LU factorizations performed");
    return c;
}

stats::Counter &
statSingular()
{
    static stats::Counter &c = stats::counter(
        "circuit.lu.singular", "LU factorizations that hit a near-zero "
                               "pivot");
    return c;
}

} // namespace

bool
LuFactors::factor(const Matrix &a)
{
    const std::size_t n = a.size();
    valid_ = false;
    if (lu.size() != n)
        lu = Matrix(n);
    // Single contiguous copy into the retained storage (the former
    // element-wise at() loop re-derived every row offset).
    std::copy(a.raw(), a.raw() + n * n, lu.raw());

    perm.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        perm[i] = i;
    ++statFactor();

    for (std::size_t k = 0; k < n; ++k) {
        std::size_t pivot = k;
        double best = std::abs(lu.at(k, k));
        for (std::size_t r = k + 1; r < n; ++r) {
            const double v = std::abs(lu.at(r, k));
            if (v > best) {
                best = v;
                pivot = r;
            }
        }
        if (best < 1e-30) {
            ++statSingular();
            return false;
        }
        if (pivot != k) {
            for (std::size_t c = 0; c < n; ++c)
                std::swap(lu.at(k, c), lu.at(pivot, c));
            std::swap(perm[k], perm[pivot]);
        }

        const double inv = 1.0 / lu.at(k, k);
        for (std::size_t r = k + 1; r < n; ++r) {
            const double factor = lu.at(r, k) * inv;
            // Store the multiplier in the eliminated position so
            // solve() can replay the elimination on any RHS.
            lu.at(r, k) = factor;
            if (factor == 0.0)
                continue;
            for (std::size_t c = k + 1; c < n; ++c)
                lu.at(r, c) -= factor * lu.at(k, c);
        }
    }
    valid_ = true;
    return true;
}

void
LuFactors::solve(std::vector<double> &b) const
{
    if (!valid_)
        panic("LuFactors::solve: no valid factorization");
    const std::size_t n = lu.size();
    if (b.size() != n)
        panic("LuFactors::solve: RHS size mismatch");

    static stats::Counter &stat_solves = stats::counter(
        "circuit.lu.solves", "triangular solves against stored factors");
    ++stat_solves;

    // Apply the row permutation (into retained scratch — the hot
    // chord-iteration path makes one of these per Newton iteration).
    std::vector<double> &pb = scratch;
    pb.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        pb[i] = b[perm[i]];

    // Forward substitution with the unit-lower factor.
    for (std::size_t i = 1; i < n; ++i) {
        double s = pb[i];
        for (std::size_t c = 0; c < i; ++c)
            s -= lu.at(i, c) * pb[c];
        pb[i] = s;
    }
    // Back substitution with the upper factor.
    for (std::size_t i = n; i-- > 0;) {
        double s = pb[i];
        for (std::size_t c = i + 1; c < n; ++c)
            s -= lu.at(i, c) * pb[c];
        pb[i] = s / lu.at(i, i);
    }
    b.swap(pb);
}

} // namespace otft::circuit
