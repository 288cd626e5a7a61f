// Cholesky factorization of symmetric positive-definite matrices.
//
// The Gaussian-process solver factors its kernel matrix once per fit and
// reuses the factor for solves and log-determinants (marginal likelihood).
// These kernels are the bitwise reference of the repo's reproducibility
// contract (same spec => byte-identical campaign.json); test_linalg pins
// their bits against independent scalar loops.
#pragma once

#include <span>

#include "linalg/matrix.hpp"

namespace sdl::linalg {

class Cholesky {
public:
    /// Factors A = L Lᵀ. Throws Error("linalg") if A is not
    /// (numerically) positive definite; callers typically add jitter
    /// and retry.
    explicit Cholesky(const Matrix& a);

    /// Solves A x = b via forward + back substitution.
    [[nodiscard]] Vec solve(const Vec& b) const;

    /// Solves L y = b (forward substitution only).
    [[nodiscard]] Vec solve_lower(const Vec& b) const;

    /// Multi-RHS forward substitution, in place: solves L Y = B for all
    /// columns of the n x m matrix `b` at once (column j of `b` is one
    /// right-hand side; on return it holds the corresponding solution).
    /// The update is blocked by rows — row i is finished with one axpy
    /// per prior row, each contiguous across all m systems — so the
    /// inner loops vectorize where the per-column dependency chain of
    /// solve_lower cannot. Every column's result is bitwise identical
    /// to solve_lower on that column: per element the same multiplies
    /// and subtractions run in the same order, only interleaved across
    /// columns. The sweep is fused with the two reductions GP batch
    /// prediction needs, all in one pass over `b`:
    ///   weighted_sums[j] = sum_i weights[i] * B_original(i, j)
    ///     (accumulated before row i is overwritten — for the GP this is
    ///      the posterior mean k_*^T alpha),
    ///   sq_norms[j]      = sum_i Y(i, j)^2
    ///     (accumulated as row i is finished — for the GP this is the
    ///      variance reduction |L^-1 k_*|^2).
    /// Both reductions accumulate in ascending-row order, matching
    /// dot(b, weights) and dot(y, y) bitwise. Spans must have size m.
    void solve_lower_multi_fused(Matrix& b, std::span<const double> weights,
                                 std::span<double> weighted_sums,
                                 std::span<double> sq_norms) const;

    /// log(det(A)) = 2 * sum(log(L_ii)); needed by GP marginal likelihood.
    [[nodiscard]] double log_det() const noexcept;

    /// Rank-1 extension: grows the factor of the n×n matrix A to the
    /// factor of [[A, b], [bᵀ, c]] in O(n²) — one forward substitution
    /// for the new row plus a copy — instead of the O(n³) refactorization.
    /// The arithmetic matches a from-scratch Cholesky of the extended
    /// matrix operation for operation, so the result is bitwise identical
    /// to refactoring. Throws Error("linalg") when the extended matrix is
    /// not positive definite (the factor is left unchanged).
    void extend(const Vec& b, double c);

    [[nodiscard]] const Matrix& lower() const noexcept { return l_; }
    [[nodiscard]] std::size_t size() const noexcept { return l_.rows(); }

private:
    Matrix l_;
};

/// Factors A + jitter·I, growing jitter geometrically until the
/// factorization succeeds (at most `max_attempts` tries).
[[nodiscard]] Cholesky cholesky_with_jitter(Matrix a, double initial_jitter = 1e-10,
                                            int max_attempts = 8);

}  // namespace sdl::linalg
