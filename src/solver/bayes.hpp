// Bayesian optimization solver (§2.5): a Gaussian-process surrogate over
// mixing ratios with expected-improvement acquisition.
//
// The paper built theirs on scikit-learn; this is a from-scratch
// equivalent: RBF kernel with a noise nugget, hyperparameters selected by
// log-marginal-likelihood grid search, Cholesky-based posterior, and
// batch proposals via the constant-liar heuristic. The paper reports that
// Bayesian optimization "does not yield a systematic improvement over the
// genetic algorithm" — the solver-ablation bench reproduces that
// comparison.
#pragma once

#include "linalg/cholesky.hpp"
#include "solver/solver.hpp"
#include "support/random.hpp"

namespace sdl::solver {

/// Gaussian-process regression with an isotropic RBF kernel:
///   k(x, x') = signal_var * exp(-|x-x'|^2 / (2 l^2)) + noise_var * [x==x']
/// Targets are standardized internally. The posterior follows GPML
/// Alg. 2.1 with the weights kept as w = L⁻¹y instead of α = K⁻¹y: at a
/// query with v = L⁻¹k_*, the mean is vᵀw (= k_*ᵀα) and the variance
/// k(x, x) - vᵀv, so one forward solve serves both.
class GaussianProcess {
public:
    struct Hyperparams {
        double lengthscale = 0.4;
        double noise_var = 1e-2;   ///< relative to unit signal variance
        double signal_var = 1.0;
    };

    /// Fits the GP to (xs, ys). When `optimize` is true, a small grid of
    /// lengthscales and noise levels is scored by log marginal likelihood
    /// and the best is kept — the winning candidate's Cholesky factor is
    /// reused directly, so the kernel matrix is never rebuilt for the
    /// chosen hyperparameters.
    void fit(std::vector<std::vector<double>> xs, std::vector<double> ys,
             bool optimize = true);

    /// Incrementally absorbs one observation at the current
    /// hyperparameters: extends the Cholesky factor by the new row
    /// (rank-1 update, O(n²)) instead of refitting the full O(n³)
    /// factorization. The target standardization (mean/scale) stays
    /// frozen at the last fit() so the existing kernel rows remain
    /// valid; refit when the data distribution shifts. The updated
    /// factor is bitwise identical to a from-scratch refactorization at
    /// the same hyperparameters and standardization, and w grows by one
    /// entry in O(n) (the forward-solve recurrence on the factor's new
    /// row), since its leading entries stay exact. Returns true when
    /// the factor was extended; false when the extension failed and the
    /// GP fell back to a jittered full refactorization (a PoolPosterior
    /// tracking this GP must then be rebuilt, see PoolPosterior::update).
    bool observe(std::vector<double> x, double y);

    [[nodiscard]] bool fitted() const noexcept { return !xs_.empty(); }
    [[nodiscard]] std::size_t size() const noexcept { return xs_.size(); }
    [[nodiscard]] const Hyperparams& hyperparams() const noexcept { return params_; }

    struct Prediction {
        double mean = 0.0;
        double variance = 0.0;
    };
    /// Posterior at a point (in the original, unstandardized units); the
    /// per-point oracle PoolPosterior matches bit for bit.
    [[nodiscard]] Prediction predict(std::span<const double> x) const;

    /// Log marginal likelihood of the standardized targets under `p`;
    /// the fit term yᵀK⁻¹y is wᵀw. When `p` equals the fitted
    /// hyperparameters, the existing factor and w are reused instead of
    /// rebuilding the kernel matrix.
    [[nodiscard]] double log_marginal_likelihood(const Hyperparams& p) const;

private:
    friend class PoolPosterior;

    void factorize(const Hyperparams& p);
    [[nodiscard]] linalg::Matrix train_matrix() const;
    /// k(train, x_j) as column j of an n x m matrix, with kernel()'s bits.
    [[nodiscard]] linalg::Matrix cross_kernel(const linalg::Matrix& x) const;
    /// Maps standardized posterior terms to a Prediction: predict()'s
    /// variance floor and unstandardization.
    [[nodiscard]] Prediction unstandardize(double mean_std, double sq_norm) const noexcept;
    [[nodiscard]] linalg::Matrix kernel_matrix(const Hyperparams& p) const;
    [[nodiscard]] double lml_terms(const linalg::Cholesky& chol,
                                   const linalg::Vec& w) const;
    [[nodiscard]] double kernel(std::span<const double> a, std::span<const double> b,
                                const Hyperparams& p) const noexcept;

    std::vector<std::vector<double>> xs_;
    std::vector<double> ys_raw_;
    std::vector<double> ys_std_;  ///< standardized targets
    double y_mean_ = 0.0;
    double y_scale_ = 1.0;
    Hyperparams params_;
    std::unique_ptr<linalg::Cholesky> chol_;
    linalg::Vec w_;  ///< L⁻¹y (standardized)
};

/// The posterior of one fixed candidate pool under a GP that grows by
/// constant-liar observe() calls (Ginsbourger, Le Riche & Carraro 2010;
/// Rasmussen & Williams, GPML Alg. 2.1) — the solver's only batched
/// scorer. Construction scores the pool in one blocked pass
/// (linalg::Cholesky::solve_lower_multi_fused over the cross-kernel
/// matrix); pools with enough work (n^2 * C) are chunked across
/// support::global_pool() with parallel_map, which nests safely inside a
/// pool task (a busy pool degrades it to serial). Per candidate it keeps
/// v = L⁻¹k, |v|² and the standardized mean vᵀw. Each extended observe()
/// appends one entry to every candidate's v in O(n) instead of
/// re-solving in O(n²): the new point's kernel row, the forward-solve
/// recurrence, then |v|² += v_new² and mean += v_new·w_new. All sums run
/// in ascending order, so prediction(c) is bitwise identical to
/// gp.predict(pool.row(c)) on the extended GP, whatever the chunking or
/// thread count. The GP must outlive the posterior.
class PoolPosterior {
public:
    PoolPosterior(const GaussianProcess& gp, linalg::Matrix pool);

    /// Catches up with one gp.observe() whose report was `extended`:
    /// `posterior.update(gp.observe(x, y))`. After a fallback
    /// refactorization (extended == false) every candidate's v is
    /// stale, and the pool is re-scored from the new factor.
    void update(bool extended);

    [[nodiscard]] const linalg::Matrix& pool() const noexcept { return pool_; }
    [[nodiscard]] GaussianProcess::Prediction prediction(std::size_t c) const noexcept {
        return gp_->unstandardize(mean_std_[c], sq_norm_[c]);
    }

private:
    /// Scores the whole pool against the GP's current factor.
    void rescore();

    const GaussianProcess* gp_;
    linalg::Matrix pool_;
    std::size_t n_ = 0;  ///< training points the rows of v_ cover
    /// L⁻¹k(train, pool) in column blocks, as scored: block b is n_ x
    /// (its candidates), and the blocks cover the pool's rows in order.
    std::vector<linalg::Matrix> v_;
    linalg::Vec mean_std_;
    linalg::Vec sq_norm_;
};

struct BayesConfig {
    std::size_t dims = 4;
    /// Untaken EI candidates each pick sees; one batch of n shares a pool
    /// of candidates + n - 1 rows.
    std::size_t candidates = 512;
    std::size_t warmup = 8;  ///< random samples before the GP kicks in
    std::uint64_t seed = 0xBA7E5;
};

class BayesSolver final : public SolverBase {
public:
    explicit BayesSolver(BayesConfig config = {});

    [[nodiscard]] std::string name() const override { return "bayesian"; }
    [[nodiscard]] std::vector<std::vector<double>> ask(std::size_t n) override;

    /// Expected improvement (for minimization) at posterior (mean, var)
    /// against incumbent `best_y`; exposed for tests.
    [[nodiscard]] static double expected_improvement(double mean, double variance,
                                                     double best_y, double xi) noexcept;

private:
    [[nodiscard]] std::vector<double> random_point();
    /// Writes a fresh valid random point into `out` (no allocation) —
    /// the candidate-pool hot path.
    void random_point_into(std::span<double> out);
    /// Fills `pool` (rows x dims) with one batch's shared candidates:
    /// even rows global-uniform, odd rows perturbations of the incumbent.
    void fill_candidate_pool(linalg::Matrix& pool);

    BayesConfig config_;
    support::Rng rng_;
};

}  // namespace sdl::solver
