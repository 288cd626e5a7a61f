#include "solver/bayes.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numbers>

#include "linalg/fastmath.hpp"
#include "linalg/matrix.hpp"
#include "support/common.hpp"
#include "support/thread_pool.hpp"

namespace sdl::solver {

namespace {
double normal_pdf(double z) noexcept {
    return std::exp(-0.5 * z * z) / std::sqrt(2.0 * std::numbers::pi);
}
double normal_cdf(double z) noexcept { return 0.5 * std::erfc(-z / std::numbers::sqrt2); }
}  // namespace

double GaussianProcess::kernel(std::span<const double> a, std::span<const double> b,
                               const Hyperparams& p) const noexcept {
    return linalg::rbf_kernel(a, b, p.signal_var, p.lengthscale);
}

linalg::Matrix GaussianProcess::train_matrix() const {
    const std::size_t n = xs_.size();
    const std::size_t dims = xs_.front().size();
    linalg::Matrix train(n, dims);
    for (std::size_t i = 0; i < n; ++i) {
        const std::span<double> row = train.row(i);
        for (std::size_t k = 0; k < dims; ++k) row[k] = xs_[i][k];
    }
    return train;
}

linalg::Matrix GaussianProcess::kernel_matrix(const Hyperparams& p) const {
    // Assembled with the batch kernels (one cross_sq_dist + one RBF
    // map) instead of n^2 scalar kernel() calls. Each entry carries
    // kernel()'s exact bits: the squared distance accumulates in the
    // same ascending-dimension order, and the RBF map runs the same
    // expression sequence (matrix.hpp, fastmath.hpp).
    const std::size_t n = xs_.size();
    const linalg::Matrix train = train_matrix();
    linalg::Matrix k = linalg::cross_sq_dist(train, train);
    linalg::rbf_from_sq_dist(k, p.signal_var, p.lengthscale);
    for (std::size_t i = 0; i < n; ++i) k(i, i) += p.noise_var;
    return k;
}

double GaussianProcess::lml_terms(const linalg::Cholesky& chol,
                                  const linalg::Vec& w) const {
    const double fit_term = linalg::dot(w, w);
    return -0.5 * fit_term - 0.5 * chol.log_det() -
           0.5 * static_cast<double>(xs_.size()) * std::log(2.0 * std::numbers::pi);
}

void GaussianProcess::factorize(const Hyperparams& p) {
    chol_ = std::make_unique<linalg::Cholesky>(
        linalg::cholesky_with_jitter(kernel_matrix(p)));
    w_ = chol_->solve_lower(ys_std_);
    params_ = p;
}

namespace {
bool same_params(const GaussianProcess::Hyperparams& a,
                 const GaussianProcess::Hyperparams& b) noexcept {
    return a.lengthscale == b.lengthscale && a.noise_var == b.noise_var &&
           a.signal_var == b.signal_var;
}
}  // namespace

double GaussianProcess::log_marginal_likelihood(const Hyperparams& p) const {
    // At the fitted hyperparameters the factor and w are already in
    // hand; evaluating the LML there must not rebuild the kernel matrix.
    if (chol_ != nullptr && chol_->size() == xs_.size() && same_params(p, params_)) {
        return lml_terms(*chol_, w_);
    }
    const linalg::Cholesky chol =
        linalg::cholesky_with_jitter(kernel_matrix(p));
    return lml_terms(chol, chol.solve_lower(ys_std_));
}

bool GaussianProcess::observe(std::vector<double> x, double y) {
    support::check(fitted() && chol_ != nullptr, "GP observe before fit");
    support::check(x.size() == xs_.front().size(), "GP observe: dimension mismatch");
    const std::size_t n = xs_.size();
    linalg::Vec b(n);
    for (std::size_t i = 0; i < n; ++i) b[i] = kernel(xs_[i], x, params_);
    const double c = kernel(x, x, params_) + params_.noise_var;
    xs_.push_back(std::move(x));
    ys_raw_.push_back(y);
    // Standardization is frozen at the last full fit (see header).
    ys_std_.push_back((y - y_mean_) / y_scale_);
    try {
        chol_->extend(b, c);
    } catch (const support::Error&) {
        // Pathological geometry (e.g. an exact duplicate with negligible
        // noise): fall back to the jittered full refit.
        factorize(params_);
        return false;
    }
    // w's new entry by the forward-solve recurrence on the factor's new
    // row; the leading n entries stand, since extend() keeps L's leading
    // block and the standardization is frozen.
    const linalg::Matrix& l = chol_->lower();
    double s = ys_std_.back();
    for (std::size_t k = 0; k < n; ++k) s -= l(n, k) * w_[k];
    w_.push_back(s / l(n, n));
    return true;
}

void GaussianProcess::fit(std::vector<std::vector<double>> xs, std::vector<double> ys,
                          bool optimize) {
    support::check(xs.size() == ys.size() && !xs.empty(), "GP fit: shape mismatch");
    support::check(std::ranges::all_of(xs, [&](const std::vector<double>& x) {
                       return x.size() == xs.front().size();
                   }),
                   "GP fit: ragged training rows");
    xs_ = std::move(xs);
    ys_raw_ = std::move(ys);

    // Standardize targets so unit signal variance is a sensible prior.
    double mean = 0.0;
    for (const double y : ys_raw_) mean += y;
    mean /= static_cast<double>(ys_raw_.size());
    double var = 0.0;
    for (const double y : ys_raw_) var += (y - mean) * (y - mean);
    var /= static_cast<double>(ys_raw_.size());
    y_mean_ = mean;
    y_scale_ = var > 1e-12 ? std::sqrt(var) : 1.0;
    ys_std_.resize(ys_raw_.size());
    for (std::size_t i = 0; i < ys_raw_.size(); ++i) {
        ys_std_[i] = (ys_raw_[i] - y_mean_) / y_scale_;
    }

    // The previous fit's factor describes other data; drop it so the LML
    // fast path cannot reuse it by accident during the grid search.
    chol_.reset();
    w_.clear();

    if (!optimize) {
        factorize(params_);
        return;
    }
    // Grid-search hyperparameters by LML, keeping the winning candidate's
    // factor and w so the chosen kernel matrix is factored exactly once.
    double best_lml = -1e300;
    Hyperparams best = params_;
    std::unique_ptr<linalg::Cholesky> best_chol;
    linalg::Vec best_w;
    for (const double lengthscale : {0.15, 0.3, 0.6, 1.2}) {
        for (const double noise : {1e-3, 1e-2, 1e-1}) {
            const Hyperparams p{lengthscale, noise, 1.0};
            auto chol = std::make_unique<linalg::Cholesky>(
                linalg::cholesky_with_jitter(kernel_matrix(p)));
            linalg::Vec w = chol->solve_lower(ys_std_);
            const double lml = lml_terms(*chol, w);
            if (lml > best_lml) {
                best_lml = lml;
                best = p;
                best_chol = std::move(chol);
                best_w = std::move(w);
            }
        }
    }
    if (best_chol == nullptr) {
        factorize(best);  // unreachable unless the grid is empty
        return;
    }
    chol_ = std::move(best_chol);
    w_ = std::move(best_w);
    params_ = best;
}

linalg::Matrix GaussianProcess::cross_kernel(const linalg::Matrix& x) const {
    // One cross_sq_dist plus one RBF map. Each entry carries kernel()'s
    // bits (same -0.5*d2/(l*l) argument, same fast_exp via its array
    // form, same signal-variance scale).
    linalg::Matrix kx = linalg::cross_sq_dist(train_matrix(), x);
    linalg::rbf_from_sq_dist(kx, params_.signal_var, params_.lengthscale);
    return kx;
}

GaussianProcess::Prediction GaussianProcess::unstandardize(double mean_std,
                                                           double sq_norm) const noexcept {
    double var_std = params_.signal_var + params_.noise_var - sq_norm;
    if (var_std < 1e-12) var_std = 1e-12;
    return {mean_std * y_scale_ + y_mean_, var_std * y_scale_ * y_scale_};
}

GaussianProcess::Prediction GaussianProcess::predict(std::span<const double> x) const {
    support::check(fitted(), "GP predict before fit");
    support::check(x.size() == xs_.front().size(), "GP predict: dimension mismatch");
    const std::size_t n = xs_.size();
    linalg::Vec kx(n);
    for (std::size_t i = 0; i < n; ++i) kx[i] = kernel(xs_[i], x, params_);

    const linalg::Vec v = chol_->solve_lower(kx);
    return unstandardize(linalg::dot(v, w_), linalg::dot(v, v));
}

namespace {

// Below this n^2 * C work estimate one blocked pass beats the dispatch
// overhead; above it the pool splits into row chunks (each still a
// blocked multi-RHS pass). 2^18 puts the paper-scale case (n = 64,
// C = 256) on the parallel side.
constexpr std::size_t kParallelWork = 262'144;
constexpr std::size_t kChunk = 64;

}  // namespace

// ---------------------------------------------------------- PoolPosterior

PoolPosterior::PoolPosterior(const GaussianProcess& gp, linalg::Matrix pool)
    : gp_(&gp), pool_(std::move(pool)) {
    support::check(gp.fitted(), "GP predict before fit");
    support::check(pool_.cols() == gp.xs_.front().size(),
                   "PoolPosterior: dimension mismatch");
    rescore();
}

void PoolPosterior::rescore() {
    const GaussianProcess& gp = *gp_;
    n_ = gp.size();
    const std::size_t m = pool_.rows();
    // Each block reduces into sums of its own: chunks writing into shared
    // arrays would share the cache lines at their boundaries.
    struct Block {
        linalg::Matrix v;  ///< k(train, rows), solved in place to L⁻¹k
        linalg::Vec mean_std;
        linalg::Vec sq_norm;
    };
    const auto score = [&](const linalg::Matrix& x) {
        Block b{gp.cross_kernel(x), linalg::Vec(x.rows()), linalg::Vec(x.rows())};
        gp.chol_->solve_lower_multi_fused(b.v, gp.w_, b.mean_std, b.sq_norm);
        return b;
    };
    // One blocked pass on the whole pool, or, with enough work, one per
    // 64-row chunk across support::global_pool(), in row order.
    std::vector<Block> blocks;
    if (m <= kChunk || n_ * n_ * m < kParallelWork) {
        blocks.push_back(score(pool_));
    } else {
        blocks = support::global_pool().parallel_map(
            (m + kChunk - 1) / kChunk, [&](std::size_t chunk) {
                const std::size_t begin = chunk * kChunk;
                linalg::Matrix x(std::min(m, begin + kChunk) - begin, pool_.cols());
                for (std::size_t c = 0; c < x.rows(); ++c) {
                    std::ranges::copy(pool_.row(begin + c), x.row(c).begin());
                }
                return score(x);
            });
    }
    v_.clear();
    mean_std_.clear();
    sq_norm_.clear();
    for (Block& b : blocks) {
        v_.push_back(std::move(b.v));
        mean_std_.insert(mean_std_.end(), b.mean_std.begin(), b.mean_std.end());
        sq_norm_.insert(sq_norm_.end(), b.sq_norm.begin(), b.sq_norm.end());
    }
}

void PoolPosterior::update(bool extended) {
    const GaussianProcess& gp = *gp_;
    if (!extended) {
        rescore();
        return;
    }
    support::check(gp.size() == n_ + 1, "PoolPosterior::update: one observe() per update");
    const std::size_t n = n_;

    // Row n of the extended GP's cross-kernel: the new point against the
    // pool, with cross_kernel()'s bits.
    const std::vector<double>& x = gp.xs_.back();
    linalg::Matrix point(1, x.size());
    std::copy(x.begin(), x.end(), point.row(0).begin());
    linalg::Matrix k_row = linalg::cross_sq_dist(point, pool_);
    linalg::rbf_from_sq_dist(k_row, gp.params_.signal_var, gp.params_.lengthscale);

    // v's new entry by the forward-solve recurrence against the factor's
    // new row, subtracting in ascending k like the blocked sweep; the
    // leading n entries are unchanged because extend() keeps L's leading
    // block. So are w's, which makes the mean vᵀw one more ascending term.
    const linalg::Matrix& l = gp.chol_->lower();
    const double lnn = l(n, n);
    const double wn = gp.w_[n];
    std::size_t col0 = 0;
    for (linalg::Matrix& v : v_) {
        const std::size_t cols = v.cols();
        v.append_row(k_row.row(0).subspan(col0, cols));
        double* v_new = v.row(n).data();
        for (std::size_t k = 0; k < n; ++k) {
            const double lnk = l(n, k);
            const double* v_k = v.row(k).data();
            for (std::size_t j = 0; j < cols; ++j) v_new[j] -= lnk * v_k[j];
        }
        double* mean = mean_std_.data() + col0;
        double* sq = sq_norm_.data() + col0;
        for (std::size_t j = 0; j < cols; ++j) {
            v_new[j] /= lnn;
            mean[j] += v_new[j] * wn;
            sq[j] += v_new[j] * v_new[j];
        }
        col0 += cols;
    }
    n_ = n + 1;
}

// ------------------------------------------------------------ BayesSolver

namespace {
constexpr double kExploration = 0.01;  ///< EI xi (in standardized units)
/// Cap on training points; the most recent ones are kept (the kernel
/// solve is O(n^3)).
constexpr std::size_t kMaxPoints = 256;
}  // namespace

BayesSolver::BayesSolver(BayesConfig config) : config_(config), rng_(config.seed) {
    support::check(config_.dims >= 1, "bayes solver needs at least one dye");
    support::check(config_.candidates >= 8, "need a non-trivial candidate pool");
}

double BayesSolver::expected_improvement(double mean, double variance, double best_y,
                                         double xi) noexcept {
    const double sigma = std::sqrt(variance);
    if (sigma < 1e-12) return 0.0;
    const double improvement = best_y - mean - xi;
    const double z = improvement / sigma;
    const double ei = improvement * normal_cdf(z) + sigma * normal_pdf(z);
    return ei > 0.0 ? ei : 0.0;
}

std::vector<double> BayesSolver::random_point() {
    std::vector<double> x(config_.dims);
    random_point_into(x);
    return x;
}

void BayesSolver::random_point_into(std::span<double> out) {
    do {
        for (double& v : out) v = rng_.uniform();
    } while (!is_valid_proposal(out, config_.dims));
}

void BayesSolver::fill_candidate_pool(linalg::Matrix& pool) {
    const std::optional<Observation> best_obs = best();  // best() returns by value
    for (std::size_t c = 0; c < pool.rows(); ++c) {
        const std::span<double> candidate = pool.row(c);
        // Half the pool is global-uniform, half perturbs the incumbent
        // (local refinement).
        if (c % 2 == 0 || !best_obs.has_value()) {
            random_point_into(candidate);
        } else {
            const std::vector<double>& incumbent = best_obs->ratios;
            for (std::size_t k = 0; k < candidate.size(); ++k) {
                candidate[k] =
                    support::clamp(incumbent[k] + rng_.normal(0.0, 0.1), 0.0, 1.0);
            }
            if (!is_valid_proposal(candidate, config_.dims)) random_point_into(candidate);
        }
    }
}

std::vector<std::vector<double>> BayesSolver::ask(std::size_t n) {
    support::check(n >= 1, "ask() needs n >= 1");
    std::vector<std::vector<double>> proposals;
    proposals.reserve(n);

    if (archive().size() < config_.warmup) {
        for (std::size_t i = 0; i < n; ++i) proposals.push_back(random_point());
        return proposals;
    }

    // Training set: most recent kMaxPoints observations.
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    const std::size_t start =
        archive().size() > kMaxPoints ? archive().size() - kMaxPoints : 0;
    for (std::size_t i = start; i < archive().size(); ++i) {
        xs.push_back(archive()[i].ratios);
        ys.push_back(archive()[i].score);
    }

    // One full fit (with hyperparameter search) per batch; the
    // constant-liar points are then absorbed with O(n²) rank-1 updates at
    // the fitted hyperparameters and frozen standardization.
    GaussianProcess gp;
    gp.fit(xs, ys, /*optimize=*/true);
    double best_y = ys.front();
    for (const double y : ys) best_y = std::min(best_y, y);

    // Constant liar over one shared pool: after each pick, pretend it
    // returned the incumbent best and condition the GP on that lie, so
    // the next pick explores elsewhere. The pool is scored once; each lie
    // then costs O(n) per candidate (PoolPosterior). A lied row often
    // keeps the highest EI, so taken rows, and rows equal to a pick
    // (clamped perturbations can coincide), are skipped. candidates +
    // n - 1 rows leave every pick at least `candidates` rows besides the
    // earlier picks.
    linalg::Matrix pool(config_.candidates + n - 1, config_.dims);
    fill_candidate_pool(pool);
    PoolPosterior posterior(gp, std::move(pool));
    const linalg::Matrix& rows = posterior.pool();
    std::vector<bool> taken(rows.rows(), false);
    for (std::size_t pick = 0; pick < n; ++pick) {
        double best_ei = -1.0;
        std::size_t best_row = rows.rows();
        for (std::size_t c = 0; c < rows.rows(); ++c) {
            if (taken[c]) continue;
            const GaussianProcess::Prediction p = posterior.prediction(c);
            const double ei = expected_improvement(p.mean, p.variance, best_y, kExploration);
            if (ei > best_ei) {
                best_ei = ei;
                best_row = c;
            }
        }
        if (best_row == rows.rows()) {
            // Duplicates used up the pool (or no EI compared): a fresh
            // random point, distinct from the picks almost surely.
            proposals.push_back(random_point());
        } else {
            const std::span<const double> picked = rows.row(best_row);
            for (std::size_t c = 0; c < rows.rows(); ++c) {
                if (!taken[c] && std::ranges::equal(rows.row(c), picked)) taken[c] = true;
            }
            proposals.emplace_back(picked.begin(), picked.end());
        }
        if (pick + 1 < n) posterior.update(gp.observe(proposals.back(), best_y));  // the lie
    }
    return proposals;
}

}  // namespace sdl::solver
