// Small dense linear algebra.
//
// Sized for the needs of sdlbench: Gaussian-process regression over a few
// hundred samples (Cholesky factorization of the kernel matrix) and
// least-squares lattice fitting in the vision pipeline. Row-major storage,
// no expression templates — clarity over cleverness at these sizes.
#pragma once

#include <span>
#include <vector>

namespace sdl::linalg {

using Vec = std::vector<double>;

[[nodiscard]] double dot(std::span<const double> a, std::span<const double> b);
[[nodiscard]] double norm2(std::span<const double> a);
/// y += alpha * x
void axpy(double alpha, std::span<const double> x, std::span<double> y);

class Matrix;

/// Pairwise squared Euclidean distances between the rows of `a` (n x d)
/// and the rows of `b` (m x d), returned as an n x m matrix. Each entry
/// accumulates coordinate differences in ascending-dimension order — the
/// same order as a scalar `|a_i - b_j|^2` loop — so downstream consumers
/// (the GP kernel) stay bitwise identical to their one-pair-at-a-time
/// equivalents. The row-major result keeps the inner (j) loop contiguous
/// in both `b` and the output.
[[nodiscard]] Matrix cross_sq_dist(const Matrix& a, const Matrix& b);

class Matrix {
public:
    Matrix() = default;
    /// rows x cols, zero-initialized (or filled with `fill`).
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

    [[nodiscard]] static Matrix identity(std::size_t n);

    [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
    [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

    [[nodiscard]] double& operator()(std::size_t r, std::size_t c) noexcept {
        return data_[r * cols_ + c];
    }
    [[nodiscard]] double operator()(std::size_t r, std::size_t c) const noexcept {
        return data_[r * cols_ + c];
    }

    [[nodiscard]] std::span<const double> row(std::size_t r) const noexcept {
        return {data_.data() + r * cols_, cols_};
    }
    [[nodiscard]] std::span<double> row(std::size_t r) noexcept {
        return {data_.data() + r * cols_, cols_};
    }

    [[nodiscard]] Matrix transposed() const;

    /// this * other; dimension mismatch throws LogicError.
    [[nodiscard]] Matrix operator*(const Matrix& other) const;

    /// this * v
    [[nodiscard]] Vec operator*(const Vec& v) const;

    Matrix& operator+=(const Matrix& other);
    Matrix& operator-=(const Matrix& other);
    Matrix& operator*=(double k) noexcept;

    /// Appends one row; its size must equal cols().
    void append_row(std::span<const double> row);

    /// Adds `value` to every diagonal entry (ridge / jitter).
    void add_diagonal(double value) noexcept;

    [[nodiscard]] double max_abs() const noexcept;

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

}  // namespace sdl::linalg
