/**
 * @file
 * Dense linear solver for the circuit simulator.
 *
 * Standard-cell circuits have at most a few dozen nodes, so a dense
 * LU factorization with partial pivoting is both simpler and faster
 * than a sparse solver at this scale.
 *
 * LuFactors splits factor() from solve() so one factorization can
 * back many right-hand sides — the workhorse of chord (modified)
 * Newton iterations, where the Jacobian is frozen while only the
 * residual changes.
 */

#ifndef OTFT_CIRCUIT_LINEAR_SOLVER_HPP
#define OTFT_CIRCUIT_LINEAR_SOLVER_HPP

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace otft::circuit {

/** Dense row-major square matrix. */
class Matrix
{
  public:
    explicit Matrix(std::size_t n = 0) : n(n), data(n * n, 0.0) {}

    double &
    at(std::size_t r, std::size_t c)
    {
        assert(r < n && c < n && "Matrix::at out of range");
        return data[r * n + c];
    }
    double
    at(std::size_t r, std::size_t c) const
    {
        assert(r < n && c < n && "Matrix::at out of range");
        return data[r * n + c];
    }

    std::size_t size() const { return n; }

    /** Raw row-major storage, size() * size() doubles. */
    double *raw() { return data.data(); }
    const double *raw() const { return data.data(); }

    /**
     * Zero only the given flattened entries (index = r * size() + c).
     * With the stamp pattern of an MNA assembly this is an O(nnz)
     * sweep instead of an O(n^2) fill; it is sound because every
     * entry outside the pattern is still zero from construction, as
     * long as callers restrict their writes to the pattern.
     */
    void
    zeroEntries(const std::vector<std::uint32_t> &entries)
    {
        for (const std::uint32_t idx : entries) {
            assert(idx < data.size());
            data[idx] = 0.0;
        }
    }

  private:
    std::size_t n;
    std::vector<double> data;
};

/**
 * A reusable LU factorization (partial pivoting).
 *
 * factor() copies the matrix (one contiguous memcpy into retained
 * storage) and factorizes the copy. solve() then applies the stored
 * permutation plus forward/back substitution to any number of
 * right-hand sides without re-factoring. Storage —
 * including the permutation and the solve scratch vector — is
 * retained across calls of the same size, so a Newton loop
 * re-factoring repeatedly allocates only once.
 *
 * Not thread-safe: solve() reuses a member scratch buffer, so a
 * shared LuFactors must not be solved from two threads concurrently
 * (each solver instance owns its own, as the engines do).
 */
class LuFactors
{
  public:
    /** Storage for an n x n system; factor() resizes it if needed. */
    explicit LuFactors(std::size_t n = 0) : lu(n), perm(n), scratch(n) {}

    /**
     * Factor `a`. @return false when numerically singular (a
     * near-zero pivot); the factors are then invalid.
     */
    bool factor(const Matrix &a);

    /** Solve L U x = P b in place; requires valid(). */
    void solve(std::vector<double> &b) const;

    /** @return true after a successful factor(). */
    bool valid() const { return valid_; }

    /**
     * Dimension of the factored system: the last factor()'s, or the
     * constructor's before any.
     */
    std::size_t size() const { return lu.size(); }

    /** Drop the factors (e.g. when the matrix structure changes). */
    void invalidate() { valid_ = false; }

  private:
    Matrix lu{0};
    std::vector<std::size_t> perm;
    /** solve() scratch for the permuted RHS (no per-call alloc). */
    mutable std::vector<double> scratch;
    bool valid_ = false;
};

} // namespace otft::circuit

#endif // OTFT_CIRCUIT_LINEAR_SOLVER_HPP
