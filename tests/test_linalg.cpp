// Tests for the dense linear algebra kernels (matrix ops, Cholesky,
// least squares) that the GP solver and the vision grid fit rely on.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "linalg/cholesky.hpp"
#include "linalg/fastmath.hpp"
#include "linalg/lstsq.hpp"
#include "linalg/matrix.hpp"
#include "support/common.hpp"
#include "support/random.hpp"

using namespace sdl::linalg;
using sdl::support::Rng;

TEST(Matrix, BasicOps) {
    Matrix a(2, 3);
    a(0, 0) = 1;
    a(0, 1) = 2;
    a(0, 2) = 3;
    a(1, 0) = 4;
    a(1, 1) = 5;
    a(1, 2) = 6;

    const Matrix t = a.transposed();
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t.cols(), 2u);
    EXPECT_DOUBLE_EQ(t(2, 1), 6.0);

    const Vec v{1.0, 1.0, 1.0};
    const Vec av = a * v;
    EXPECT_DOUBLE_EQ(av[0], 6.0);
    EXPECT_DOUBLE_EQ(av[1], 15.0);

    a.append_row(Vec{7.0, 8.0, 9.0});
    EXPECT_EQ(a.rows(), 3u);
    EXPECT_DOUBLE_EQ(a(1, 2), 6.0);
    EXPECT_DOUBLE_EQ(a(2, 0), 7.0);
    EXPECT_DOUBLE_EQ(a(2, 2), 9.0);
}

TEST(Matrix, MatmulAgainstHandComputed) {
    Matrix a(2, 2);
    a(0, 0) = 1;
    a(0, 1) = 2;
    a(1, 0) = 3;
    a(1, 1) = 4;
    Matrix b(2, 2);
    b(0, 0) = 5;
    b(0, 1) = 6;
    b(1, 0) = 7;
    b(1, 1) = 8;
    const Matrix c = a * b;
    EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
    EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
    EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
    EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, IdentityIsNeutral) {
    Rng rng(5);
    Matrix a(4, 4);
    for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 4; ++j) a(i, j) = rng.uniform(-2, 2);
    const Matrix ai = a * Matrix::identity(4);
    for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(ai(i, j), a(i, j));
}

TEST(Matrix, DimensionMismatchThrows) {
    Matrix a(2, 3), b(2, 3);
    EXPECT_THROW((void)(a * b), sdl::support::LogicError);
    const Vec short_vec{1.0, 2.0};
    EXPECT_THROW((void)(a * short_vec), sdl::support::LogicError);
    EXPECT_THROW(a.append_row(short_vec), sdl::support::LogicError);
}

TEST(VecOps, DotAxpyNorm) {
    const Vec a{1, 2, 3};
    const Vec b{4, 5, 6};
    EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
    EXPECT_DOUBLE_EQ(norm2(Vec{3, 4}), 5.0);
    Vec y{1, 1, 1};
    axpy(2.0, a, y);
    EXPECT_DOUBLE_EQ(y[2], 7.0);
}

// --------------------------------------------------------------- cholesky

namespace {
/// Random SPD matrix A = B Bᵀ + boost·I. The default boost keeps the
/// matrix comfortably conditioned; the property sweeps also pass tiny
/// boosts (1e-6) so B Bᵀ's near-singular spectrum shows through and the
/// recurrences are exercised at bad conditioning, not just good.
Matrix random_spd(std::size_t n, Rng& rng, double boost) {
    Matrix b(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.uniform(-1, 1);
    Matrix a = b * b.transposed();
    a.add_diagonal(boost);
    return a;
}
Matrix random_spd(std::size_t n, Rng& rng) {
    return random_spd(n, rng, static_cast<double>(n));
}

/// Sizes for the property sweeps: degenerate edges, primes that leave
/// blocking/unroll tails, and solver-realistic n.
constexpr std::size_t kPropertySizes[] = {1, 2, 3, 5, 8, 13, 17, 32, 48, 64};
constexpr double kDiagBoosts[] = {8.0, 1e-2, 1e-6};
constexpr std::uint64_t kPropertySeeds[] = {59, 113, 211};
}  // namespace

TEST(Cholesky, ReconstructsMatrix) {
    Rng rng(31);
    const Matrix a = random_spd(6, rng);
    const Cholesky chol(a);
    const Matrix l = chol.lower();
    const Matrix llt = l * l.transposed();
    for (std::size_t i = 0; i < 6; ++i)
        for (std::size_t j = 0; j < 6; ++j) EXPECT_NEAR(llt(i, j), a(i, j), 1e-9);
}

TEST(Cholesky, SolveSatisfiesSystem) {
    Rng rng(37);
    const Matrix a = random_spd(8, rng);
    Vec b(8);
    for (double& x : b) x = rng.uniform(-5, 5);
    const Vec x = Cholesky(a).solve(b);
    const Vec ax = a * x;
    for (std::size_t i = 0; i < 8; ++i) EXPECT_NEAR(ax[i], b[i], 1e-8);
}

TEST(Cholesky, LogDetMatchesKnownMatrix) {
    // diag(4, 9) -> det = 36, logdet = log(36).
    Matrix a(2, 2);
    a(0, 0) = 4;
    a(1, 1) = 9;
    EXPECT_NEAR(Cholesky(a).log_det(), std::log(36.0), 1e-12);
}

TEST(Cholesky, RejectsIndefiniteMatrix) {
    Matrix a(2, 2);
    a(0, 0) = 1;
    a(0, 1) = 2;
    a(1, 0) = 2;
    a(1, 1) = 1;  // eigenvalues 3, -1
    EXPECT_THROW(Cholesky{a}, sdl::support::Error);
}

TEST(VecOps, CrossSqDistMatchesScalarLoop) {
    Rng rng(53);
    Matrix a(5, 4);
    Matrix b(7, 4);
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t k = 0; k < 4; ++k) a(i, k) = rng.uniform(-2, 2);
    for (std::size_t j = 0; j < b.rows(); ++j)
        for (std::size_t k = 0; k < 4; ++k) b(j, k) = rng.uniform(-2, 2);

    const Matrix d2 = cross_sq_dist(a, b);
    ASSERT_EQ(d2.rows(), 5u);
    ASSERT_EQ(d2.cols(), 7u);
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < b.rows(); ++j) {
            double want = 0.0;
            for (std::size_t k = 0; k < 4; ++k) {
                const double diff = a(i, k) - b(j, k);
                want += diff * diff;
            }
            // Bitwise: same accumulation order as the scalar loop.
            EXPECT_EQ(d2(i, j), want) << i << "," << j;
        }
    }
}

TEST(FastMath, FastExpTracksStdExpAndClamps) {
    Rng rng(67);
    // Accuracy across the range the GP actually uses (exponents <= 0)
    // plus the positive side: a few ulp of relative error.
    for (int i = 0; i < 20000; ++i) {
        const double x = rng.uniform(-700.0, 700.0);
        const double want = std::exp(x);
        const double got = fast_exp(x);
        EXPECT_NEAR(got, want, std::abs(want) * 1e-14) << "x=" << x;
    }
    EXPECT_EQ(fast_exp(0.0), 1.0);
    // Out-of-range inputs clamp to the boundary values (documented
    // approximation, not IEEE exp): finite at both ends.
    EXPECT_EQ(fast_exp(-1e9), fast_exp(-708.0));
    EXPECT_EQ(fast_exp(1e9), fast_exp(709.0));
    EXPECT_GT(fast_exp(-708.0), 0.0);
    EXPECT_TRUE(std::isfinite(fast_exp(709.0)));
}

TEST(FastMath, VexpBitwiseMatchesScalarFastExp) {
    // vexp's contract: the array form runs the exact operations of the
    // scalar form per element, vectorized or not.
    Rng rng(71);
    std::vector<double> xs(1037);
    for (double& x : xs) x = rng.uniform(-90.0, 1.0);
    std::vector<double> out(xs.size());
    vexp(xs, out);
    for (std::size_t i = 0; i < xs.size(); ++i) {
        EXPECT_EQ(out[i], fast_exp(xs[i])) << "i=" << i;
    }
    // In place too.
    std::vector<double> inplace = xs;
    vexp(inplace, inplace);
    EXPECT_EQ(inplace, out);
}

namespace {

/// round_half_away's earlier sign-test form, the oracle for the
/// branch-free one.
int sign_test_round(float v) { return static_cast<int>(v >= 0.0F ? v + 0.5F : v - 0.5F); }
long sign_test_round(double v) { return static_cast<long>(v >= 0.0 ? v + 0.5 : v - 0.5); }

}  // namespace

TEST(FastMath, RoundHalfAwayMatchesSignTestForm) {
    std::vector<float> fs = {0.0F,          -0.0F,          0.49999997F,    -0.49999997F,
                             8388607.5F,    -8388607.5F,    8388609.0F,     16777216.0F,
                             -16777216.0F,  1073741824.0F,  2147483520.0F,  -2147483520.0F,
                             -2147483648.0F};
    // ±k.5 and their neighbours on both sides.
    for (int k = 0; k < 4096; ++k) {
        for (const float sign : {1.0F, -1.0F}) {
            const float half = sign * (static_cast<float>(k) + 0.5F);
            fs.push_back(half);
            fs.push_back(std::nextafter(half, 0.0F));
            fs.push_back(std::nextafter(half, sign * 1e30F));
            fs.push_back(sign * static_cast<float>(k));
        }
    }
    // The (-1.5, 0) band: accumulator padding lets votes that round into
    // it through, so walk it densely by bit pattern.
    const auto neg_zero = std::bit_cast<std::uint32_t>(-0.0F);
    for (std::uint32_t bits = neg_zero; bits < std::bit_cast<std::uint32_t>(-1.5F);
         bits += 613) {
        fs.push_back(std::bit_cast<float>(bits));
    }
    // Random patterns over every magnitude below 2^31.
    Rng rng(73);
    while (fs.size() < 2'000'000) {
        const float v = std::bit_cast<float>(static_cast<std::uint32_t>(rng.next()));
        if (std::abs(v) < 2147483648.0F) fs.push_back(v);
    }
    for (const float v : fs) {
        ASSERT_EQ(round_half_away(v), sign_test_round(v)) << std::hexfloat << v;
    }
    EXPECT_EQ(round_half_away(2.5F), 3);
    EXPECT_EQ(round_half_away(-2.5F), -3);
    EXPECT_EQ(round_half_away(-0.4F), 0);
    EXPECT_EQ(round_half_away(-1.4999999F), -1);

    // The double overload, over the same kinds of inputs.
    std::vector<double> ds = {0.0, -0.0, 4503599627370495.5, -4503599627370495.5,
                              9007199254740993.0, 4611686018427387904.0,
                              -4611686018427387904.0};
    for (int k = 0; k < 4096; ++k) {
        for (const double sign : {1.0, -1.0}) {
            const double half = sign * (k + 0.5);
            ds.insert(ds.end(), {half, std::nextafter(half, 0.0),
                                 std::nextafter(half, sign * 1e300), sign * k});
        }
    }
    while (ds.size() < 200'000) {
        const double v = std::bit_cast<double>(rng.next());
        if (std::abs(v) < 9.2e18) ds.push_back(v);
    }
    for (const double v : ds) {
        ASSERT_EQ(round_half_away(v), sign_test_round(v)) << std::hexfloat << v;
    }
    EXPECT_EQ(round_half_away(-2.5), -3L);
    EXPECT_EQ(round_half_away(-0.0), 0L);
}

namespace {

/// Draws an n x m right-hand side and n weights from `rng`, runs the
/// fused sweep, and checks it against the unfused scalar flow:
/// solve_lower per column, dot(y_col, weights) and dot(y_col, y_col) in
/// ascending-index order.
void expect_fused_matches_dots(const Cholesky& chol, std::size_t m, Rng& rng,
                               const std::string& what) {
    const std::size_t n = chol.size();
    Matrix b(n, m);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < m; ++j) b(i, j) = rng.uniform(-3, 3);
    Vec weights(n);
    for (double& w : weights) w = rng.uniform(-1, 1);

    Matrix y = b;
    Vec wsum(m);
    Vec sq(m);
    chol.solve_lower_multi_fused(y, weights, wsum, sq);

    for (std::size_t j = 0; j < m; ++j) {
        Vec col(n);
        for (std::size_t i = 0; i < n; ++i) col[i] = b(i, j);
        const Vec solved = chol.solve_lower(col);
        EXPECT_EQ(wsum[j], dot(solved, weights)) << what << " col " << j;
        EXPECT_EQ(sq[j], dot(solved, solved)) << what << " col " << j;
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(y(i, j), solved[i]) << what << " col " << j << " row " << i;
        }
    }
}

}  // namespace

TEST(Cholesky, SolveLowerMultiFusedReductionsMatchDots) {
    // Property: for every size, RHS count, seed, and conditioning, the
    // blocked fused solve+reductions sweep carries the exact bits of the
    // scalar per-column flow.
    for (const std::uint64_t seed : kPropertySeeds) {
        for (const std::size_t n : kPropertySizes) {
            Rng rng(seed + n * 331);
            const double boost = kDiagBoosts[(seed + n) % 3];
            const Cholesky chol(random_spd(n, rng, boost));
            const std::size_t m = 1 + (seed + n * 7) % 60;
            expect_fused_matches_dots(chol, m, rng,
                                      "n=" + std::to_string(n) + " m=" + std::to_string(m) +
                                          " boost=" + std::to_string(boost) +
                                          " seed=" + std::to_string(seed));
        }
    }
    for (const std::size_t n : kPropertySizes) {
        Rng rng(61 + n * 977);
        const Cholesky chol(random_spd(n, rng, kDiagBoosts[n % 3]));
        const std::size_t m = 1 + (n * 11) % 40;
        expect_fused_matches_dots(chol, m, rng, "n=" + std::to_string(n));

        const Vec weights(n);
        Vec wsum(m);
        Vec sq(m);
        Matrix wrong_rows(n + 1, m);
        EXPECT_THROW(chol.solve_lower_multi_fused(wrong_rows, weights, wsum, sq),
                     sdl::support::LogicError);
        Matrix y(n, m);
        Vec short_sums(m - 1);
        if (m > 1) {
            EXPECT_THROW(chol.solve_lower_multi_fused(y, weights, short_sums, sq),
                         sdl::support::LogicError);
        }
    }
}

TEST(Cholesky, ExtendMatchesFullRefactorizationBitwise) {
    // The rank-1 extension runs the same recurrence in the same order as
    // factoring the (n+1)×(n+1) matrix from scratch, so the factors must
    // agree exactly — this is what lets the GP's incremental observe()
    // reproduce the batch refit bit for bit.
    // Property: at every base size, seed, and conditioning, a chain of
    // three extensions lands on the exact bits of factoring the final
    // matrix from scratch.
    constexpr std::size_t kGrow = 3;
    for (const std::uint64_t seed : kPropertySeeds) {
        for (const std::size_t n : kPropertySizes) {
            Rng rng(seed + n * 41);
            const double boost = kDiagBoosts[(seed + n) % 3];
            const Matrix big = random_spd(n + kGrow, rng, boost);
            Matrix base(n, n);
            for (std::size_t i = 0; i < n; ++i)
                for (std::size_t j = 0; j < n; ++j) base(i, j) = big(i, j);

            Cholesky incremental(base);
            for (std::size_t g = 0; g < kGrow; ++g) {
                const std::size_t grown = n + g;
                Vec b(grown);
                for (std::size_t i = 0; i < grown; ++i) b[i] = big(grown, i);
                incremental.extend(b, big(grown, grown));
            }
            const Cholesky full(big);
            ASSERT_EQ(incremental.size(), n + kGrow);
            for (std::size_t i = 0; i < n + kGrow; ++i) {
                for (std::size_t j = 0; j <= i; ++j) {
                    EXPECT_EQ(incremental.lower()(i, j), full.lower()(i, j))
                        << "n=" << n << " boost=" << boost << " seed=" << seed
                        << " L(" << i << "," << j << ")";
                }
            }
        }
    }
}

TEST(Cholesky, ExtendedFactorSolvesTheExtendedSystem) {
    Rng rng(43);
    const Matrix big = random_spd(7, rng);
    Matrix base(6, 6);
    for (std::size_t i = 0; i < 6; ++i)
        for (std::size_t j = 0; j < 6; ++j) base(i, j) = big(i, j);
    Vec b(6);
    for (std::size_t i = 0; i < 6; ++i) b[i] = big(6, i);
    Cholesky chol(base);
    chol.extend(b, big(6, 6));

    Vec rhs(7);
    for (double& x : rhs) x = rng.uniform(-3, 3);
    const Vec x = chol.solve(rhs);
    const Vec ax = big * x;
    for (std::size_t i = 0; i < 7; ++i) EXPECT_NEAR(ax[i], rhs[i], 1e-8);
}

TEST(Cholesky, ExtendRejectsIndefiniteGrowthAndKeepsFactor) {
    Matrix a(2, 2);
    a(0, 0) = 4;
    a(1, 1) = 9;
    Cholesky chol(a);
    // b chosen so the Schur complement c - bᵀA⁻¹b is negative.
    EXPECT_THROW(chol.extend(Vec{4.0, 0.0}, 1.0), sdl::support::Error);
    EXPECT_EQ(chol.size(), 2u);  // untouched
    EXPECT_NO_THROW(chol.extend(Vec{1.0, 1.0}, 9.0));
    EXPECT_EQ(chol.size(), 3u);
}

TEST(Cholesky, JitterRescuesSemidefiniteMatrix) {
    // Rank-1 PSD matrix (singular): plain Cholesky fails, jittered works.
    Matrix a(3, 3);
    for (std::size_t i = 0; i < 3; ++i)
        for (std::size_t j = 0; j < 3; ++j) a(i, j) = 1.0;
    EXPECT_THROW(Cholesky{a}, sdl::support::Error);
    EXPECT_NO_THROW(cholesky_with_jitter(a));
}

TEST(Cholesky, NonSquareThrows) {
    EXPECT_THROW(Cholesky{Matrix(2, 3)}, sdl::support::LogicError);
}

// ------------------------------------------------------------------ lstsq

TEST(Lstsq, RecoversExactLinearModel) {
    // y = 2x + 1 sampled without noise.
    Matrix a(5, 2);
    Vec b(5);
    for (std::size_t i = 0; i < 5; ++i) {
        const double x = static_cast<double>(i);
        a(i, 0) = x;
        a(i, 1) = 1.0;
        b[i] = 2.0 * x + 1.0;
    }
    const Vec coef = lstsq(a, b);
    EXPECT_NEAR(coef[0], 2.0, 1e-10);
    EXPECT_NEAR(coef[1], 1.0, 1e-10);
}

TEST(Lstsq, RidgeShrinksSolution) {
    Matrix a(4, 1);
    Vec b(4);
    for (std::size_t i = 0; i < 4; ++i) {
        a(i, 0) = 1.0;
        b[i] = 10.0;
    }
    const Vec plain = lstsq(a, b);
    const Vec ridged = lstsq(a, b, 100.0);
    EXPECT_NEAR(plain[0], 10.0, 1e-10);
    EXPECT_LT(ridged[0], plain[0]);
}

TEST(Lstsq, UnderdeterminedThrows) {
    EXPECT_THROW(lstsq(Matrix(2, 3), Vec(2)), sdl::support::LogicError);
}

TEST(RobustLstsq, IgnoresGrossOutliers) {
    // y = 3x with two wild outliers; Huber IRLS should stay near slope 3,
    // ordinary least squares is dragged away.
    Rng rng(41);
    const std::size_t n = 30;
    Matrix a(n, 1);
    Vec b(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double x = static_cast<double>(i) / n;
        a(i, 0) = x;
        b[i] = 3.0 * x + rng.normal(0.0, 0.01);
    }
    b[3] = 50.0;
    b[17] = -40.0;
    const Vec ols = lstsq(a, b);
    const Vec robust = robust_lstsq(a, b, 0.1);
    EXPECT_GT(std::fabs(ols[0] - 3.0), 1.0);
    EXPECT_NEAR(robust[0], 3.0, 0.5);
}

// ------------------------------------------------ bitwise reference

namespace {

/// The randomized n (training points) x d (dims) x C (candidates)
/// sweep grid. Sizes straddle the solver's real shapes (n up to the GP
/// training-point cap neighborhood, C around the 512-candidate pools) plus the
/// degenerate edges (n = 1, C = 1, odd sizes that leave unroll tails).
struct CaseShape {
    std::size_t n, d, c;
};
constexpr CaseShape kShapes[] = {
    {1, 2, 1},   {2, 3, 7},   {3, 4, 17},   {5, 4, 33},  {8, 4, 48},
    {13, 3, 64}, {21, 4, 95}, {33, 4, 100}, {48, 6, 128}, {64, 4, 257},
};
constexpr std::uint64_t kShapeSeeds[] = {11, 29, 47};

Matrix random_matrix(Rng& rng, std::size_t rows, std::size_t cols, double lo, double hi) {
    Matrix m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.uniform(lo, hi);
    }
    return m;
}

/// Random points in the solver's native domain (mixing ratios live in
/// [0, 1]^d).
Matrix random_points(Rng& rng, std::size_t n, std::size_t d) {
    return random_matrix(rng, n, d, 0.0, 1.0);
}

/// RBF gram matrix plus a noise nugget — the SPD input the GP factors.
Matrix gram_matrix(const Matrix& pts, double lengthscale, double noise) {
    Matrix k = cross_sq_dist(pts, pts);
    rbf_from_sq_dist(k, 1.0, lengthscale);
    for (std::size_t i = 0; i < k.rows(); ++i) k(i, i) += noise;
    return k;
}

std::uint64_t bits(double x) noexcept { return std::bit_cast<std::uint64_t>(x); }

void expect_bits_equal(std::span<const double> ref, std::span<const double> got,
                       const std::string& what) {
    ASSERT_EQ(ref.size(), got.size()) << what;
    for (std::size_t i = 0; i < ref.size(); ++i) {
        if (bits(ref[i]) != bits(got[i])) {
            ADD_FAILURE() << what << ": element " << i << " differs: ref " << ref[i]
                          << " (0x" << std::hex << bits(ref[i]) << ") vs got "
                          << got[i] << " (0x" << bits(got[i]) << ")";
            return;  // one mismatch per call keeps the log readable
        }
    }
}

void expect_bits_equal(const Matrix& ref, const Matrix& got, const std::string& what) {
    ASSERT_EQ(ref.rows(), got.rows()) << what;
    ASSERT_EQ(ref.cols(), got.cols()) << what;
    for (std::size_t r = 0; r < ref.rows(); ++r) {
        expect_bits_equal(ref.row(r), got.row(r), what + " row " + std::to_string(r));
    }
}

// Independent scalar re-implementations of the historical kernels. The
// library kernels must match these bit for bit; they are deliberately
// written out again here (not calls into src/linalg) so the reference
// cannot drift together with the implementation.

Matrix reference_cross_sq_dist(const Matrix& a, const Matrix& b) {
    Matrix out(a.rows(), b.rows());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < b.rows(); ++j) {
            double d2 = 0.0;
            for (std::size_t k = 0; k < a.cols(); ++k) {
                const double diff = a(i, k) - b(j, k);
                d2 += diff * diff;
            }
            out(i, j) = d2;
        }
    }
    return out;
}

Matrix reference_cholesky_factor(const Matrix& a) {
    const std::size_t n = a.rows();
    Matrix l(n, n);
    for (std::size_t j = 0; j < n; ++j) {
        double diag = a(j, j);
        for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
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

Matrix reference_rbf_from_sq_dist(Matrix d2, double sv, double ls) {
    for (std::size_t i = 0; i < d2.rows(); ++i) {
        for (std::size_t j = 0; j < d2.cols(); ++j) {
            d2(i, j) = sv * fast_exp(-0.5 * d2(i, j) / (ls * ls));
        }
    }
    return d2;
}

/// Naive per-column forward substitution with the GP's two reductions:
/// `wsum` gets weights . y_col and `sq` gets |y_col|^2, both summed in
/// ascending row order.
Matrix reference_solve_lower_multi(const Matrix& l, Matrix b, std::span<const double> weights,
                                   Vec& wsum, Vec& sq) {
    const std::size_t n = l.rows();
    wsum.assign(b.cols(), 0.0);
    sq.assign(b.cols(), 0.0);
    for (std::size_t col = 0; col < b.cols(); ++col) {
        for (std::size_t i = 0; i < n; ++i) {
            double s = b(i, col);
            for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * b(k, col);
            b(i, col) = s / l(i, i);
            wsum[col] += b(i, col) * weights[i];
            sq[col] += b(i, col) * b(i, col);
        }
    }
    return b;
}

}  // namespace

TEST(ReferenceKernels, MatchHistoricalKernelsBitwise) {
    for (const std::uint64_t seed : kShapeSeeds) {
        for (const CaseShape& shape : kShapes) {
            Rng rng(seed * 7919 + shape.n * 131 + shape.c);
            const Matrix pts = random_points(rng, shape.n, shape.d);
            const Matrix queries = random_matrix(rng, shape.c, shape.d, -0.5, 1.5);

            const Matrix d2 = cross_sq_dist(pts, queries);
            expect_bits_equal(reference_cross_sq_dist(pts, queries), d2, "cross_sq_dist");

            Matrix rbf = d2;
            rbf_from_sq_dist(rbf, 1.0, 0.3);
            expect_bits_equal(reference_rbf_from_sq_dist(d2, 1.0, 0.3), rbf,
                              "rbf_from_sq_dist");

            const Matrix gram = gram_matrix(pts, 0.3, 1e-2);
            const Cholesky chol(gram);
            expect_bits_equal(reference_cholesky_factor(gram), chol.lower(),
                              "cholesky factor");

            Matrix b = random_matrix(rng, shape.n, shape.c, -1.0, 1.0);
            const Matrix weights = random_matrix(rng, 1, shape.n, -1.0, 1.0);
            Vec want_wsum;
            Vec want_sq;
            const Matrix expected = reference_solve_lower_multi(chol.lower(), b, weights.row(0),
                                                                want_wsum, want_sq);
            Vec wsum(shape.c);
            Vec sq(shape.c);
            chol.solve_lower_multi_fused(b, weights.row(0), wsum, sq);
            expect_bits_equal(expected, b, "solve_lower_multi_fused");
            expect_bits_equal(want_wsum, wsum, "solve_lower_multi_fused weighted sums");
            expect_bits_equal(want_sq, sq, "solve_lower_multi_fused squared norms");
        }
    }
}

// Property sweep: solve accuracy holds across sizes.
class CholeskySizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CholeskySizes, SolveResidualSmall) {
    Rng rng(GetParam() * 101 + 7);
    const std::size_t n = GetParam();
    const Matrix a = random_spd(n, rng);
    Vec b(n);
    for (double& x : b) x = rng.uniform(-1, 1);
    const Vec x = cholesky_with_jitter(a).solve(b);
    const Vec ax = a * x;
    double residual = 0.0;
    for (std::size_t i = 0; i < n; ++i) residual = std::max(residual, std::fabs(ax[i] - b[i]));
    EXPECT_LT(residual, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskySizes,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 16u, 32u, 64u, 128u));
