#include "linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>

#include "support/common.hpp"

namespace sdl::linalg {

namespace {

Matrix cholesky_factor(const Matrix& a) {
    const std::size_t n = a.rows();
    Matrix l(n, n);
    for (std::size_t j = 0; j < n; ++j) {
        double diag = a(j, j);
        for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
        if (!(diag > 0.0) || !std::isfinite(diag)) {
            throw support::Error("linalg", "matrix is not positive definite (pivot " +
                                               std::to_string(j) + ")");
        }
        const double ljj = std::sqrt(diag);
        l(j, j) = ljj;
        for (std::size_t i = j + 1; i < n; ++i) {
            double s = a(i, j);
            for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
            l(i, j) = s / ljj;
        }
    }
    return l;
}

Vec forward_substitute(const Matrix& l, const Vec& b) {
    const std::size_t n = l.rows();
    Vec y(n);
    for (std::size_t i = 0; i < n; ++i) {
        double s = b[i];
        for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * y[k];
        y[i] = s / l(i, i);
    }
    return y;
}

/// L1-tiled multi-RHS forward-substitution sweep with the two GP
/// reductions. Tiling keeps each tile's active slab L1-resident while the
/// O(n^2) row sweep runs over it — without it, every row pass streams the
/// whole n x m matrix and the solve goes memory-bound. Columns are
/// independent, so tiling leaves every element's operation sequence (and
/// its bits) unchanged.
void tiled_lower_sweep(const Matrix& l, Matrix& b, std::span<const double> weights,
                       std::span<double> weighted_sums, std::span<double> sq_norms) {
    const std::size_t n = l.rows();
    const std::size_t m = b.cols();
    constexpr std::size_t kTile = 48;
    for (std::size_t j0 = 0; j0 < m; j0 += kTile) {
        const std::size_t tile = std::min(kTile, m - j0);
        for (std::size_t i = 0; i < n; ++i) {
            double* row_i = b.row(i).data() + j0;
            for (std::size_t k = 0; k < i; ++k) {
                const double lik = l(i, k);
                const double* row_k = b.row(k).data() + j0;
                for (std::size_t j = 0; j < tile; ++j) row_i[j] -= lik * row_k[j];
            }
            const double lii = l(i, i);
            const double wi = weights[i];
            double* wsum = weighted_sums.data() + j0;
            double* sq = sq_norms.data() + j0;
            for (std::size_t j = 0; j < tile; ++j) {
                row_i[j] /= lii;
                wsum[j] += row_i[j] * wi;
                sq[j] += row_i[j] * row_i[j];
            }
        }
    }
}

}  // namespace

Cholesky::Cholesky(const Matrix& a) {
    support::check(a.rows() == a.cols(), "cholesky: matrix must be square");
    l_ = cholesky_factor(a);
}

Vec Cholesky::solve_lower(const Vec& b) const {
    support::check(b.size() == size(), "cholesky solve: size mismatch");
    return forward_substitute(l_, b);
}

Vec Cholesky::solve(const Vec& b) const {
    const std::size_t n = size();
    Vec y = solve_lower(b);
    // Back substitution with Lᵀ.
    Vec x(n);
    for (std::size_t ii = n; ii-- > 0;) {
        double s = y[ii];
        for (std::size_t k = ii + 1; k < n; ++k) s -= l_(k, ii) * x[k];
        x[ii] = s / l_(ii, ii);
    }
    return x;
}

void Cholesky::solve_lower_multi_fused(Matrix& b, std::span<const double> weights,
                                       std::span<double> weighted_sums,
                                       std::span<double> sq_norms) const {
    const std::size_t n = size();
    support::check(b.rows() == n, "cholesky solve_lower_multi_fused: size mismatch");
    const std::size_t m = b.cols();
    support::check(weights.size() == n && weighted_sums.size() == m &&
                       sq_norms.size() == m,
                   "cholesky solve_lower_multi_fused: reduction size mismatch");
    for (std::size_t j = 0; j < m; ++j) {
        weighted_sums[j] = 0.0;
        sq_norms[j] = 0.0;
    }
    tiled_lower_sweep(l_, b, weights, weighted_sums, sq_norms);
}

void Cholesky::extend(const Vec& b, double c) {
    support::check(b.size() == size(), "cholesky extend: size mismatch");
    const std::size_t n = size();
    // New bottom row: l = L⁻¹ b — the same recurrence a full
    // factorization would run for row n, in the same accumulation order.
    const Vec l = forward_substitute(l_, b);
    double d2 = c;
    for (std::size_t k = 0; k < n; ++k) d2 -= l[k] * l[k];
    if (!(d2 > 0.0) || !std::isfinite(d2)) {
        throw support::Error("linalg",
                             "extend: matrix is not positive definite (pivot " +
                                 std::to_string(n) + ")");
    }
    Matrix grown(n + 1, n + 1);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) grown(i, j) = l_(i, j);
    }
    for (std::size_t k = 0; k < n; ++k) grown(n, k) = l[k];
    grown(n, n) = std::sqrt(d2);
    l_ = std::move(grown);
}

double Cholesky::log_det() const noexcept {
    double s = 0.0;
    for (std::size_t i = 0; i < size(); ++i) s += std::log(l_(i, i));
    return 2.0 * s;
}

Cholesky cholesky_with_jitter(Matrix a, double initial_jitter, int max_attempts) {
    double jitter = initial_jitter;
    // Scale the first jitter to the matrix magnitude so tiny and huge
    // kernels both factor on early attempts.
    const double scale = a.max_abs();
    if (scale > 0.0) jitter *= scale;
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
        try {
            return Cholesky(a);
        } catch (const support::Error&) {
            a.add_diagonal(jitter);
            jitter *= 10.0;
        }
    }
    return Cholesky(a);  // Final attempt; propagate its error if it fails.
}

}  // namespace sdl::linalg
