#include "linalg/matrix.hpp"

#include <cmath>

#include "support/common.hpp"

namespace sdl::linalg {

double dot(std::span<const double> a, std::span<const double> b) {
    support::check(a.size() == b.size(), "dot: size mismatch");
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
    return s;
}

double norm2(std::span<const double> a) { return std::sqrt(dot(a, a)); }

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
    support::check(x.size() == y.size(), "axpy: size mismatch");
    for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

Matrix cross_sq_dist(const Matrix& a, const Matrix& b) {
    support::check(a.cols() == b.cols(), "cross_sq_dist: dimension mismatch");
    const std::size_t n = a.rows();
    const std::size_t m = b.rows();
    const std::size_t d = a.cols();
    Matrix out(n, m);
    for (std::size_t i = 0; i < n; ++i) {
        const std::span<const double> ai = a.row(i);
        const std::span<double> orow = out.row(i);
        for (std::size_t j = 0; j < m; ++j) {
            const std::span<const double> bj = b.row(j);
            double d2 = 0.0;
            for (std::size_t k = 0; k < d; ++k) {
                const double diff = ai[k] - bj[k];
                d2 += diff * diff;
            }
            orow[j] = d2;
        }
    }
    return out;
}

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
}

Matrix Matrix::transposed() const {
    Matrix t(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r) {
        for (std::size_t c = 0; c < cols_; ++c) {
            t(c, r) = (*this)(r, c);
        }
    }
    return t;
}

Matrix Matrix::operator*(const Matrix& other) const {
    support::check(cols_ == other.rows_, "matmul: dimension mismatch");
    Matrix out(rows_, other.cols_);
    // i-k-j loop order keeps the inner loop contiguous in both operands.
    for (std::size_t i = 0; i < rows_; ++i) {
        for (std::size_t k = 0; k < cols_; ++k) {
            const double aik = (*this)(i, k);
            if (aik == 0.0) continue;
            const std::span<const double> brow = other.row(k);
            const std::span<double> orow = out.row(i);
            for (std::size_t j = 0; j < other.cols_; ++j) {
                orow[j] += aik * brow[j];
            }
        }
    }
    return out;
}

Vec Matrix::operator*(const Vec& v) const {
    support::check(cols_ == v.size(), "matvec: dimension mismatch");
    Vec out(rows_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r) {
        out[r] = dot(row(r), v);
    }
    return out;
}

Matrix& Matrix::operator+=(const Matrix& other) {
    support::check(rows_ == other.rows_ && cols_ == other.cols_, "add: shape mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
    return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
    support::check(rows_ == other.rows_ && cols_ == other.cols_, "sub: shape mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
    return *this;
}

Matrix& Matrix::operator*=(double k) noexcept {
    for (double& x : data_) x *= k;
    return *this;
}

void Matrix::append_row(std::span<const double> row) {
    support::check(row.size() == cols_, "append_row: size mismatch");
    data_.insert(data_.end(), row.begin(), row.end());
    ++rows_;
}

void Matrix::add_diagonal(double value) noexcept {
    const std::size_t n = rows_ < cols_ ? rows_ : cols_;
    for (std::size_t i = 0; i < n; ++i) (*this)(i, i) += value;
}

double Matrix::max_abs() const noexcept {
    double m = 0.0;
    for (const double x : data_) {
        const double a = std::fabs(x);
        if (a > m) m = a;
    }
    return m;
}

}  // namespace sdl::linalg
