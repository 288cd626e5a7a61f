// Tests for the optimization solvers: the paper's genetic algorithm, the
// Gaussian-process Bayesian solver, and the baselines — including
// closed-loop convergence on the simulated color-mixing objective.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <future>
#include <latch>
#include <numbers>
#include <string>

#include "color/mixing.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/fastmath.hpp"
#include "linalg/matrix.hpp"
#include "solver/anneal.hpp"
#include "solver/baselines.hpp"
#include "solver/bayes.hpp"
#include "solver/factory.hpp"
#include "solver/genetic.hpp"
#include "solver/pattern.hpp"
#include "support/common.hpp"
#include "support/random.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"

using namespace sdl::solver;
using sdl::color::BeerLambertMixer;
using sdl::color::DyeLibrary;
using sdl::color::Rgb8;
using sdl::support::Rng;

namespace {

constexpr Rgb8 kTarget{120, 120, 120};

/// Simulated objective: mix the ratios, add camera-like measurement
/// noise, return the RGB Euclidean distance to the target.
class NoisyObjective {
public:
    explicit NoisyObjective(std::uint64_t seed, double noise_sigma = 2.0)
        : mixer_(DyeLibrary::cmyk()), rng_(seed), noise_sigma_(noise_sigma) {}

    Observation evaluate(const std::vector<double>& ratios) {
        const Rgb8 truth = mixer_.mix_ratios(ratios);
        auto jitter = [&](std::uint8_t v) {
            const long q = std::lround(v + rng_.normal(0.0, noise_sigma_));
            return static_cast<std::uint8_t>(q < 0 ? 0 : (q > 255 ? 255 : q));
        };
        Observation obs;
        obs.ratios = ratios;
        obs.measured = {jitter(truth.r), jitter(truth.g), jitter(truth.b)};
        obs.score = sdl::color::rgb_distance(obs.measured, kTarget);
        return obs;
    }

    const BeerLambertMixer& mixer() const { return mixer_; }

private:
    BeerLambertMixer mixer_;
    Rng rng_;
    double noise_sigma_;
};

/// Runs a solver for `budget` samples in batches of `batch`, returning
/// the best score seen.
double run_loop(Solver& solver, NoisyObjective& objective, std::size_t budget,
                std::size_t batch) {
    double best = 1e300;
    std::size_t done = 0;
    while (done < budget) {
        const std::size_t n = std::min(batch, budget - done);
        const auto proposals = solver.ask(n);
        std::vector<Observation> observations;
        observations.reserve(proposals.size());
        for (const auto& p : proposals) {
            observations.push_back(objective.evaluate(p));
            best = std::min(best, observations.back().score);
        }
        solver.tell(observations);
        done += n;
    }
    return best;
}

}  // namespace

// -------------------------------------------------------------- interface

TEST(SolverBase, TracksBestAcrossTells) {
    GeneticSolver solver;
    EXPECT_FALSE(solver.best().has_value());
    Observation a{{0.5, 0.5, 0.5, 0.5}, {100, 100, 100}, 30.0};
    Observation b{{0.2, 0.2, 0.2, 0.2}, {118, 121, 119}, 3.0};
    Observation c{{0.9, 0.1, 0.1, 0.1}, {60, 150, 180}, 80.0};
    solver.tell(std::vector<Observation>{a});
    EXPECT_DOUBLE_EQ(solver.best()->score, 30.0);
    solver.tell(std::vector<Observation>{b, c});
    EXPECT_DOUBLE_EQ(solver.best()->score, 3.0);
}

TEST(SolverBase, ProposalValidation) {
    EXPECT_TRUE(is_valid_proposal(std::vector<double>{0.1, 0.2, 0.3, 0.4}, 4));
    EXPECT_FALSE(is_valid_proposal(std::vector<double>{0.1, 0.2, 0.3}, 4));
    EXPECT_FALSE(is_valid_proposal(std::vector<double>{-0.1, 0.2, 0.3, 0.4}, 4));
    EXPECT_FALSE(is_valid_proposal(std::vector<double>{0.0, 0.0, 0.0, 0.0}, 4));
    EXPECT_FALSE(is_valid_proposal(std::vector<double>{1.2, 0.0, 0.0, 0.0}, 4));
}

// ---------------------------------------------------------------- genetic

TEST(Genetic, InitialPopulationComesFromUniformGrid) {
    GeneticSolver solver;
    const auto proposals = solver.ask(16);
    ASSERT_EQ(proposals.size(), 16u);
    for (const auto& p : proposals) {
        ASSERT_EQ(p.size(), 4u);
        for (const double r : p) {
            // Grid values are multiples of 1/(levels-1) = 0.25.
            const double scaled = r * 4.0;
            EXPECT_NEAR(scaled, std::round(scaled), 1e-9);
        }
        EXPECT_TRUE(is_valid_proposal(p, 4));
    }
}

TEST(Genetic, ElitePropagatedIntoNextGeneration) {
    GeneticSolver solver;
    auto initial = solver.ask(9);
    std::vector<Observation> observations;
    for (std::size_t i = 0; i < initial.size(); ++i) {
        observations.push_back({initial[i], {0, 0, 0}, 50.0 - static_cast<double>(i)});
    }
    solver.tell(observations);
    const auto next = solver.ask(9);
    // Slot 0 must be the best (lowest score) element of the previous
    // generation: the last one told.
    EXPECT_EQ(next[0], initial.back());
}

TEST(Genetic, ProposalsStayValidAcrossGenerations) {
    GeneticSolver solver;
    NoisyObjective objective(5);
    for (int gen = 0; gen < 12; ++gen) {
        const auto proposals = solver.ask(9);
        std::vector<Observation> observations;
        for (const auto& p : proposals) {
            ASSERT_TRUE(is_valid_proposal(p, 4)) << "generation " << gen;
            observations.push_back(objective.evaluate(p));
        }
        solver.tell(observations);
    }
}

TEST(Genetic, DeterministicForEqualSeeds) {
    GeneticConfig config;
    config.seed = 77;
    GeneticSolver a(config), b(config);
    NoisyObjective obj_a(9), obj_b(9);
    for (int gen = 0; gen < 5; ++gen) {
        const auto pa = a.ask(6);
        const auto pb = b.ask(6);
        ASSERT_EQ(pa, pb) << "generation " << gen;
        std::vector<Observation> oa, ob;
        for (const auto& p : pa) oa.push_back(obj_a.evaluate(p));
        for (const auto& p : pb) ob.push_back(obj_b.evaluate(p));
        a.tell(oa);
        b.tell(ob);
    }
}

TEST(Genetic, ConvergesOnColorMatchingObjective) {
    // Mirrors the paper's B=8 setting at N=128: final best distance must
    // land in Figure 4's end range (roughly <= 15) for typical seeds.
    sdl::support::OnlineStats finals;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        GeneticConfig config;
        config.seed = seed;
        GeneticSolver solver(config);
        NoisyObjective objective(seed * 13);
        finals.add(run_loop(solver, objective, 128, 8));
    }
    EXPECT_LT(finals.mean(), 15.0);
    EXPECT_LT(finals.max(), 25.0);
}

TEST(Genetic, BatchSizeOneStillImproves) {
    GeneticConfig config;
    config.seed = 3;
    GeneticSolver solver(config);
    NoisyObjective objective(31);
    const double best = run_loop(solver, objective, 128, 1);
    EXPECT_LT(best, 15.0);
}

TEST(Genetic, BeatsRandomSearchOnAverage) {
    sdl::support::OnlineStats genetic_scores, random_scores;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        GeneticConfig config;
        config.seed = seed;
        GeneticSolver genetic(config);
        NoisyObjective obj_a(seed * 101);
        genetic_scores.add(run_loop(genetic, obj_a, 96, 8));

        RandomSolver random_solver(4, seed);
        NoisyObjective obj_b(seed * 101);
        random_scores.add(run_loop(random_solver, obj_b, 96, 8));
    }
    EXPECT_LT(genetic_scores.mean(), random_scores.mean());
}

// -------------------------------------------------------------------- gp

TEST(GaussianProcess, InterpolatesTrainingPoints) {
    GaussianProcess gp;
    std::vector<std::vector<double>> xs{{0.1, 0.1, 0.1, 0.1},
                                        {0.5, 0.5, 0.5, 0.5},
                                        {0.9, 0.2, 0.4, 0.7}};
    std::vector<double> ys{10.0, 3.0, 25.0};
    gp.fit(xs, ys);
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const auto pred = gp.predict(xs[i]);
        EXPECT_NEAR(pred.mean, ys[i], 2.5) << "point " << i;
    }
}

TEST(GaussianProcess, UncertaintyGrowsAwayFromData) {
    GaussianProcess gp;
    std::vector<std::vector<double>> xs{{0.5, 0.5, 0.5, 0.5}};
    std::vector<double> ys{1.0};
    gp.fit(xs, ys, /*optimize=*/false);
    const auto near = gp.predict(std::vector<double>{0.5, 0.5, 0.5, 0.52});
    const auto far = gp.predict(std::vector<double>{0.95, 0.05, 0.95, 0.05});
    EXPECT_LT(near.variance, far.variance);
}

TEST(GaussianProcess, LmlPrefersSensibleLengthscale) {
    // Data generated from a smooth function: a mid lengthscale must score
    // at least as well as a pathologically tiny one.
    Rng rng(17);
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (int i = 0; i < 40; ++i) {
        std::vector<double> x{rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform()};
        ys.push_back(std::sin(3.0 * x[0]) + x[1] * x[1]);
        xs.push_back(std::move(x));
    }
    GaussianProcess gp;
    gp.fit(xs, ys, /*optimize=*/false);
    const double lml_mid = gp.log_marginal_likelihood({0.5, 1e-2, 1.0});
    const double lml_tiny = gp.log_marginal_likelihood({0.01, 1e-2, 1.0});
    EXPECT_GT(lml_mid, lml_tiny);
}

namespace {

/// The kernel GaussianProcess itself evaluates, so hand-built references
/// carry its bits.
double rbf(const std::vector<double>& a, const std::vector<double>& b,
           const GaussianProcess::Hyperparams& p) {
    return sdl::linalg::rbf_kernel(a, b, p.signal_var, p.lengthscale);
}

}  // namespace

TEST(GaussianProcess, ObserveMatchesBatchRefitAtFrozenStandardization) {
    // The incremental rank-1 update must reproduce the posterior of a
    // from-scratch fit on the full data at the same hyperparameters and
    // the same (frozen) target standardization, bit for bit: extend()
    // matches refactorization exactly, and observe() extends w = L⁻¹y by
    // the same forward-solve recurrence solve_lower runs. The reference
    // posterior is computed by hand with linalg and the GP's own kernel.
    Rng rng(99);
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (int i = 0; i < 40; ++i) {
        std::vector<double> x{rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform()};
        ys.push_back(std::sin(3.0 * x[0]) + x[1]);
        xs.push_back(std::move(x));
    }
    constexpr std::size_t kBase = 8;

    GaussianProcess gp;
    gp.fit({xs.begin(), xs.begin() + kBase}, {ys.begin(), ys.begin() + kBase},
           /*optimize=*/false);
    const GaussianProcess::Hyperparams p = gp.hyperparams();
    for (std::size_t i = kBase; i < xs.size(); ++i) EXPECT_TRUE(gp.observe(xs[i], ys[i]));
    ASSERT_EQ(gp.size(), xs.size());

    // Standardization frozen at the first kBase targets, as documented.
    double mean = 0.0;
    for (std::size_t i = 0; i < kBase; ++i) mean += ys[i];
    mean /= static_cast<double>(kBase);
    double var = 0.0;
    for (std::size_t i = 0; i < kBase; ++i) var += (ys[i] - mean) * (ys[i] - mean);
    var /= static_cast<double>(kBase);
    const double scale = std::sqrt(var);

    const std::size_t n = xs.size();
    sdl::linalg::Matrix k(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) k(i, j) = rbf(xs[i], xs[j], p);
        k(i, i) += p.noise_var;
    }
    sdl::linalg::Vec ys_std(n);
    for (std::size_t i = 0; i < n; ++i) ys_std[i] = (ys[i] - mean) / scale;
    const sdl::linalg::Cholesky chol(k);
    const sdl::linalg::Vec w = chol.solve_lower(ys_std);

    for (int q = 0; q < 16; ++q) {
        const std::vector<double> query{rng.uniform(), rng.uniform(), rng.uniform(),
                                        rng.uniform()};
        sdl::linalg::Vec kx(n);
        for (std::size_t i = 0; i < n; ++i) kx[i] = rbf(xs[i], query, p);
        const sdl::linalg::Vec v = chol.solve_lower(kx);
        const double mean_std = sdl::linalg::dot(v, w);
        const double var_std = p.signal_var + p.noise_var - sdl::linalg::dot(v, v);

        const auto pred = gp.predict(query);
        EXPECT_EQ(pred.mean, mean_std * scale + mean) << "query " << q;
        EXPECT_EQ(pred.variance, var_std * scale * scale) << "query " << q;
    }
}

TEST(GaussianProcess, ObserveRequiresFitAndMatchingDims) {
    GaussianProcess gp;
    EXPECT_THROW(gp.observe({0.1, 0.2, 0.3, 0.4}, 1.0), sdl::support::LogicError);
    gp.fit({{0.1, 0.2, 0.3, 0.4}}, {1.0}, /*optimize=*/false);
    EXPECT_THROW(gp.observe({0.1, 0.2}, 1.0), sdl::support::LogicError);
    EXPECT_NO_THROW(gp.observe({0.5, 0.5, 0.5, 0.5}, 2.0));
    EXPECT_EQ(gp.size(), 2u);
}

TEST(GaussianProcess, ObserveExtendsThroughDuplicatePoints) {
    // Exact duplicates are the hardest case for the rank-1 extension,
    // yet the noise nugget keeps each new pivot's Schur complement at
    // least noise_var (1e-2 here), so every extension succeeds and
    // observe() reports it. The jittered-refit fallback is unreachable
    // through the public API: fit() never selects noise_var below 1e-3.
    GaussianProcess gp;
    gp.fit({{0.2, 0.2, 0.2, 0.2}, {0.8, 0.8, 0.8, 0.8}}, {1.0, -1.0},
           /*optimize=*/false);
    for (int i = 0; i < 4; ++i) EXPECT_TRUE(gp.observe({0.2, 0.2, 0.2, 0.2}, 1.0));
    EXPECT_EQ(gp.size(), 6u);
    const auto pred = gp.predict(std::vector<double>{0.2, 0.2, 0.2, 0.2});
    EXPECT_TRUE(std::isfinite(pred.mean));
    EXPECT_TRUE(std::isfinite(pred.variance));
}

TEST(GaussianProcess, LmlFastPathMatchesManualComputation) {
    Rng rng(7);
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (int i = 0; i < 10; ++i) {
        std::vector<double> x{rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform()};
        ys.push_back(x[0] * x[0] - x[2]);
        xs.push_back(std::move(x));
    }
    GaussianProcess gp;
    gp.fit(xs, ys, /*optimize=*/true);
    const GaussianProcess::Hyperparams p = gp.hyperparams();

    // Reference LML computed by hand at the fitted hyperparameters.
    double mean = 0.0;
    for (const double y : ys) mean += y;
    mean /= static_cast<double>(ys.size());
    double var = 0.0;
    for (const double y : ys) var += (y - mean) * (y - mean);
    var /= static_cast<double>(ys.size());
    const double scale = std::sqrt(var);
    const std::size_t n = xs.size();
    sdl::linalg::Matrix k(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) k(i, j) = rbf(xs[i], xs[j], p);
        k(i, i) += p.noise_var;
    }
    sdl::linalg::Vec ys_std(n);
    for (std::size_t i = 0; i < n; ++i) ys_std[i] = (ys[i] - mean) / scale;
    const sdl::linalg::Cholesky chol(k);
    const double fit_term = sdl::linalg::dot(ys_std, chol.solve(ys_std));
    const double expected = -0.5 * fit_term - 0.5 * chol.log_det() -
                            0.5 * static_cast<double>(n) *
                                std::log(2.0 * std::numbers::pi);

    // The fast path (reusing the fitted factor) must agree with the
    // from-scratch computation, and the fitted params must have won the
    // grid search.
    EXPECT_NEAR(gp.log_marginal_likelihood(p), expected, 1e-9);
    for (const double lengthscale : {0.15, 0.3, 0.6, 1.2}) {
        for (const double noise : {1e-3, 1e-2, 1e-1}) {
            EXPECT_GE(gp.log_marginal_likelihood(p) + 1e-12,
                      gp.log_marginal_likelihood({lengthscale, noise, 1.0}));
        }
    }
}

namespace {

/// n seeded 4-D training points on a smooth objective; when
/// `near_duplicates` is set every third point repeats its predecessor, so
/// the kernel matrix is near-singular, not just friendly.
GaussianProcess fitted_gp(std::size_t n, Rng& rng, bool optimize,
                          bool near_duplicates = false) {
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> x{rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform()};
        if (near_duplicates && i % 3 == 2) x = xs.back();
        ys.push_back(std::sin(3.0 * x[0]) + x[1] * x[3] + 0.1 * rng.normal());
        xs.push_back(std::move(x));
    }
    GaussianProcess gp;
    gp.fit(xs, ys, optimize);
    return gp;
}

sdl::linalg::Matrix random_pool(std::size_t rows, Rng& rng) {
    sdl::linalg::Matrix pool(rows, 4);
    for (std::size_t j = 0; j < rows; ++j)
        for (std::size_t k = 0; k < 4; ++k) pool(j, k) = rng.uniform();
    return pool;
}

/// One candidate's posterior next to the per-point oracle's.
struct PosteriorCheck {
    std::size_t lie = 0;
    std::size_t candidate = 0;
    GaussianProcess::Prediction got;
    GaussianProcess::Prediction want;
};

void collect_checks(const GaussianProcess& gp, const PoolPosterior& posterior,
                    std::size_t lie, std::vector<PosteriorCheck>& out) {
    const sdl::linalg::Matrix& pool = posterior.pool();
    for (std::size_t c = 0; c < pool.rows(); ++c) {
        out.push_back({lie, c, posterior.prediction(c), gp.predict(pool.row(c))});
    }
}

void expect_bitwise(const std::vector<PosteriorCheck>& checks, const std::string& where) {
    for (const PosteriorCheck& check : checks) {
        EXPECT_EQ(check.got.mean, check.want.mean)
            << where << " lie " << check.lie << " candidate " << check.candidate;
        EXPECT_EQ(check.got.variance, check.want.variance)
            << where << " lie " << check.lie << " candidate " << check.candidate;
    }
}

/// Builds a PoolPosterior over 192 candidates against a GP of n points,
/// then tells it 17 constant lies (as BayesSolver::ask does), collecting
/// every candidate against gp.predict after 0..17 lies. The last lie
/// also goes through the fallback's rebuild path on a second posterior.
std::vector<PosteriorCheck> run_lies(std::size_t n) {
    Rng rng(200 + n);
    GaussianProcess gp = fitted_gp(n, rng, /*optimize=*/true);
    const sdl::linalg::Matrix pool = random_pool(192, rng);
    const double lie_y = -1.0;

    std::vector<PosteriorCheck> checks;
    PoolPosterior posterior(gp, pool);
    collect_checks(gp, posterior, 0, checks);
    for (std::size_t lie = 1; lie <= 16; ++lie) {
        // Mostly pool rows, as the solver lies; every fourth lie is a
        // point off the pool.
        std::vector<double> x(4);
        for (std::size_t k = 0; k < 4; ++k) {
            x[k] = lie % 4 == 0 ? rng.uniform() : pool(7 * lie, k);
        }
        posterior.update(gp.observe(x, lie_y));
        collect_checks(gp, posterior, lie, checks);
    }
    EXPECT_EQ(gp.size(), n + 16);

    // The fallback's rebuild path: a posterior told the factor was
    // replaced re-scores from the current factor, with the same bits.
    PoolPosterior rebuilt(gp, pool);
    const bool extended = gp.observe({0.5, 0.1, 0.2, 0.3}, lie_y);
    EXPECT_TRUE(extended);
    posterior.update(extended);
    rebuilt.update(false);
    collect_checks(gp, posterior, 17, checks);
    collect_checks(gp, rebuilt, 17, checks);
    return checks;
}

}  // namespace

TEST(PoolPosterior, BitwiseMatchesPredictAcrossShapes) {
    // The posterior is the solver's only batched scorer; its whole
    // contract is that blocking changes nothing — every candidate must
    // carry the exact bits gp.predict produces. Property sweep:
    // training-set sizes from degenerate to solver-realistic, varying
    // pool sizes, several seeds, near-duplicate training points (hard
    // conditioning), and queries after observe() extends the GP.
    for (const std::uint64_t seed : {103u, 211u, 307u}) {
        for (const std::size_t n : {1u, 2u, 3u, 5u, 9u, 17u, 40u, 64u}) {
            Rng rng(seed + n * 13);
            GaussianProcess gp = fitted_gp(n, rng, /*optimize=*/n >= 9,
                                           /*near_duplicates=*/true);
            const std::size_t m = 1 + (seed + n * 7) % 64;
            PoolPosterior posterior(gp, random_pool(m, rng));
            std::vector<PosteriorCheck> checks;
            collect_checks(gp, posterior, 0, checks);
            for (std::size_t lie = 1; lie <= 3; ++lie) {
                posterior.update(gp.observe({rng.uniform(), rng.uniform(), rng.uniform(),
                                             rng.uniform()},
                                            rng.uniform(-1, 1)));
                collect_checks(gp, posterior, lie, checks);
            }
            ASSERT_EQ(checks.size(), 4 * m);
            expect_bitwise(checks, "seed=" + std::to_string(seed) + " n=" + std::to_string(n));
        }
    }
}

TEST(PoolPosterior, ValidatesShapes) {
    GaussianProcess gp;
    EXPECT_THROW((void)PoolPosterior(gp, sdl::linalg::Matrix(3, 4)), sdl::support::LogicError);
    gp.fit({{0.1, 0.2, 0.3, 0.4}, {0.5, 0.6, 0.7, 0.8}}, {1.0, 2.0},
           /*optimize=*/false);
    EXPECT_NO_THROW((void)PoolPosterior(gp, sdl::linalg::Matrix(0, 4)));
    EXPECT_THROW((void)PoolPosterior(gp, sdl::linalg::Matrix(3, 2)), sdl::support::LogicError);
}

TEST(Bayes, PoolPosteriorThreadCountInvariant) {
    // n and C sit past the parallel-dispatch threshold (n^2 * C =
    // 524288 >= 262144, C > 64), so the chunked path genuinely runs.
    // The bayes.hpp contract: candidate i carries the exact bits of
    // gp.predict(pool.row(i)) — on a free pool, and from inside tasks
    // that occupy every global_pool() worker, where the nested
    // parallel_map degrades to the calling thread alone.
    Rng rng(131);
    const GaussianProcess gp = fitted_gp(64, rng, /*optimize=*/false);
    const sdl::linalg::Matrix pool = random_pool(128, rng);
    const auto score = [&] {
        std::vector<PosteriorCheck> checks;
        collect_checks(gp, PoolPosterior(gp, pool), 0, checks);
        return checks;
    };
    expect_bitwise(score(), "free pool");

    sdl::support::ThreadPool& global = sdl::support::global_pool();
    std::latch all_busy(static_cast<std::ptrdiff_t>(global.size()));
    std::vector<std::future<std::vector<PosteriorCheck>>> nested;
    for (std::size_t w = 0; w < global.size(); ++w) {
        nested.push_back(global.submit([&] {
            all_busy.arrive_and_wait();  // every worker is now inside a task
            return score();
        }));
    }
    for (auto& checks : nested) {
        const std::vector<PosteriorCheck> got = checks.get();
        ASSERT_EQ(got.size(), pool.rows());
        expect_bitwise(got, "saturated pool");
    }
}

TEST(Bayes, SharedPoolLiesMatchFullRescore) {
    // PoolPosterior's O(n)-per-candidate update after each lie must
    // carry the exact bits of scoring the same pool from scratch on the
    // extended GP, here gp.predict per row. n = 16 keeps the initial
    // scoring one blocked pass (n^2 * C below kParallelWork); n = 64 puts
    // it on the chunked path. Both run on a free pool and from inside
    // tasks that saturate global_pool().
    for (const std::size_t n : {std::size_t{16}, std::size_t{64}}) {
        expect_bitwise(run_lies(n), "free pool n=" + std::to_string(n));

        sdl::support::ThreadPool& global = sdl::support::global_pool();
        std::latch all_busy(static_cast<std::ptrdiff_t>(global.size()));
        std::vector<std::future<std::vector<PosteriorCheck>>> nested;
        for (std::size_t w = 0; w < global.size(); ++w) {
            nested.push_back(global.submit([&] {
                all_busy.arrive_and_wait();
                return run_lies(n);
            }));
        }
        for (auto& checks : nested) {
            expect_bitwise(checks.get(), "saturated pool n=" + std::to_string(n));
        }
    }
}

TEST(Bayes, BatchesHoldNoDuplicateProposals) {
    // On a shared pool the lied row often keeps the highest EI, and
    // clamped perturbations of the incumbent can coincide; neither may
    // put two equal proposals in one batch.
    const auto expect_clean_batch = [](const std::vector<std::vector<double>>& batch,
                                       std::size_t n, const std::string& where) {
        ASSERT_EQ(batch.size(), n) << where;
        for (std::size_t i = 0; i < batch.size(); ++i) {
            EXPECT_TRUE(is_valid_proposal(batch[i], 4)) << where << " proposal " << i;
            for (std::size_t j = i + 1; j < batch.size(); ++j) {
                EXPECT_NE(batch[i], batch[j]) << where << " proposals " << i << ", " << j;
            }
        }
    };
    const std::vector<std::size_t> batch_sizes{1, 4, 16, 32};
    const auto runs = sdl::support::global_pool().parallel_map(
        8 * batch_sizes.size(), [&](std::size_t job) {
            const std::uint64_t seed = 1 + job / batch_sizes.size();
            const std::size_t batch = batch_sizes[job % batch_sizes.size()];
            BayesConfig config;
            config.seed = seed;
            BayesSolver solver(config);
            NoisyObjective objective(seed);
            std::vector<std::vector<std::vector<double>>> batches;
            for (std::size_t done = 0; done < 180;) {
                const std::size_t n = std::min(batch, 180 - done);
                batches.push_back(solver.ask(n));
                std::vector<Observation> obs;
                for (const auto& p : batches.back()) obs.push_back(objective.evaluate(p));
                solver.tell(obs);
                done += n;
            }
            return batches;
        });
    for (std::size_t job = 0; job < runs.size(); ++job) {
        const std::size_t batch = batch_sizes[job % batch_sizes.size()];
        std::size_t done = 0;
        for (const auto& proposals : runs[job]) {
            const std::size_t n = std::min(batch, 180 - done);
            const std::string where = "seed " + std::to_string(1 + job / batch_sizes.size()) +
                                      " B " + std::to_string(batch) + " after " +
                                      std::to_string(done);
            expect_clean_batch(proposals, n, where);
            done += n;
        }
        EXPECT_EQ(done, 180u);
    }

    // A batch larger than the 512 candidates: the pool grows to
    // candidates + n - 1 rows, so every pick still has untaken rows.
    BayesConfig config;
    config.candidates = 512;
    config.warmup = 8;
    BayesSolver solver(config);
    NoisyObjective objective(99);
    std::vector<Observation> warm;
    for (const auto& p : solver.ask(16)) warm.push_back(objective.evaluate(p));
    solver.tell(warm);
    expect_clean_batch(solver.ask(600), 600, "ask(600)");

    // An incumbent on the (1,1,1,1) corner: about one perturbed row in
    // sixteen clamps onto it exactly, and every copy scores alike. With
    // 8 candidates, ask(400) can outrun the pool's distinct rows; picks
    // past that fall back to fresh random points.
    for (const std::size_t candidates : {std::size_t{512}, std::size_t{8}}) {
        BayesConfig corner_config;
        corner_config.warmup = 8;
        corner_config.candidates = candidates;
        BayesSolver corner(corner_config);
        std::vector<Observation> seeded;
        for (const auto& p : corner.ask(16)) {
            Observation o;
            o.ratios = p;
            o.score = 10.0 + 10.0 * (4.0 - p[0] - p[1] - p[2] - p[3]);
            seeded.push_back(o);
        }
        Observation at_corner;
        at_corner.ratios = {1.0, 1.0, 1.0, 1.0};
        at_corner.score = 0.0;
        seeded.push_back(at_corner);
        corner.tell(seeded);
        for (const std::size_t n : {std::size_t{4}, std::size_t{16}, std::size_t{400}}) {
            expect_clean_batch(corner.ask(n), n,
                               "corner incumbent C " + std::to_string(candidates) + " B " +
                                   std::to_string(n));
        }
    }
}

TEST(Bayes, SeedPairedRunsReproduceUnderBatching) {
    // The pool is generated up front and scored in (possibly parallel)
    // blocks; none of that may leak into the proposal stream — two
    // solvers with equal seeds and equal tells must propose identical
    // batches, including past warmup where the GP drives.
    const auto run = [] {
        BayesConfig config;
        config.seed = 77;
        config.candidates = 64;
        config.warmup = 4;
        BayesSolver solver(config);
        NoisyObjective objective(123);
        std::vector<std::vector<std::vector<double>>> asked;
        for (int round = 0; round < 4; ++round) {
            auto proposals = solver.ask(4);
            asked.push_back(proposals);
            std::vector<Observation> obs;
            for (const auto& p : proposals) obs.push_back(objective.evaluate(p));
            solver.tell(obs);
        }
        return asked;
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a, b);
}

TEST(GaussianProcess, FitValidatesShapes) {
    GaussianProcess gp;
    EXPECT_THROW(gp.fit({}, {}), sdl::support::LogicError);
    EXPECT_THROW(gp.fit({{0.1}}, {1.0, 2.0}), sdl::support::LogicError);
    EXPECT_THROW((void)gp.predict(std::vector<double>{0.1}), sdl::support::LogicError);
    EXPECT_THROW(gp.fit({{0.1, 0.2}, {0.3}}, {1.0, 2.0}), sdl::support::LogicError);
    gp.fit({{0.1, 0.2, 0.3, 0.4}, {0.5, 0.6, 0.7, 0.8}}, {1.0, 2.0}, /*optimize=*/false);
    EXPECT_THROW((void)gp.predict(std::vector<double>{0.1}), sdl::support::LogicError);
    EXPECT_THROW(gp.fit({{0.1, 0.2, 0.3, 0.4}, {0.5, 0.6}}, {1.0, 2.0}),
                 sdl::support::LogicError);
    // A rejected fit leaves the previous one in place.
    EXPECT_EQ(gp.size(), 2u);
    EXPECT_NO_THROW((void)gp.predict(std::vector<double>{0.1, 0.2, 0.3, 0.4}));
}

// ------------------------------------------------------------------ bayes

TEST(Bayes, ExpectedImprovementProperties) {
    // Zero variance -> zero EI.
    EXPECT_DOUBLE_EQ(BayesSolver::expected_improvement(5.0, 0.0, 10.0, 0.0), 0.0);
    // Mean far below incumbent -> EI near the improvement.
    EXPECT_NEAR(BayesSolver::expected_improvement(2.0, 1e-6, 10.0, 0.0), 8.0, 1e-3);
    // Mean far above incumbent with tiny variance -> ~0.
    EXPECT_NEAR(BayesSolver::expected_improvement(20.0, 1e-6, 10.0, 0.0), 0.0, 1e-9);
    // Higher variance -> more EI at equal mean.
    const double low = BayesSolver::expected_improvement(12.0, 0.5, 10.0, 0.0);
    const double high = BayesSolver::expected_improvement(12.0, 9.0, 10.0, 0.0);
    EXPECT_GT(high, low);
    EXPECT_GE(low, 0.0);
}

TEST(Bayes, WarmupProposalsAreRandomAndValid) {
    BayesConfig config;
    config.warmup = 8;
    BayesSolver solver(config);
    const auto proposals = solver.ask(8);
    ASSERT_EQ(proposals.size(), 8u);
    for (const auto& p : proposals) EXPECT_TRUE(is_valid_proposal(p, 4));
}

TEST(Bayes, BatchProposalsAreDistinct) {
    BayesConfig config;
    config.warmup = 4;
    config.candidates = 128;
    BayesSolver solver(config);
    NoisyObjective objective(23);
    // Warm up with a few evaluations.
    auto warm = solver.ask(8);
    std::vector<Observation> observations;
    for (const auto& p : warm) observations.push_back(objective.evaluate(p));
    solver.tell(observations);

    const auto batch = solver.ask(4);
    ASSERT_EQ(batch.size(), 4u);
    for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_TRUE(is_valid_proposal(batch[i], 4));
        for (std::size_t j = i + 1; j < batch.size(); ++j) {
            EXPECT_NE(batch[i], batch[j]) << "constant liar should separate picks";
        }
    }
}

TEST(Bayes, ImprovesOverWarmupOnSmoothObjective) {
    BayesConfig config;
    config.warmup = 16;
    config.seed = 5;
    BayesSolver solver(config);
    NoisyObjective objective(47, /*noise=*/1.0);

    double warmup_best = 1e300;
    auto warm = solver.ask(16);
    std::vector<Observation> observations;
    for (const auto& p : warm) {
        observations.push_back(objective.evaluate(p));
        warmup_best = std::min(warmup_best, observations.back().score);
    }
    solver.tell(observations);

    double model_best = warmup_best;
    for (int round = 0; round < 10; ++round) {
        const auto batch = solver.ask(4);
        std::vector<Observation> obs;
        for (const auto& p : batch) {
            obs.push_back(objective.evaluate(p));
            model_best = std::min(model_best, obs.back().score);
        }
        solver.tell(obs);
    }
    EXPECT_LT(model_best, warmup_best);
    EXPECT_LT(model_best, 20.0);
}

// -------------------------------------------------------------- baselines

TEST(Baselines, GridScansLatticeInOrder) {
    GridSolver solver(2, 3);
    const auto first = solver.ask(4);
    // 3x3 lattice, skipping the all-zero corner: (0.5,0), (1,0), (0,0.5)...
    EXPECT_EQ(first[0], (std::vector<double>{0.5, 0.0}));
    EXPECT_EQ(first[1], (std::vector<double>{1.0, 0.0}));
    EXPECT_EQ(first[2], (std::vector<double>{0.0, 0.5}));
}

TEST(Baselines, OracleHitsNoiseFloor) {
    NoisyObjective objective(61);
    OracleSolver solver(objective.mixer(), kTarget);
    const double best = run_loop(solver, objective, 16, 4);
    // Only measurement noise separates the oracle from zero.
    EXPECT_LT(best, 6.0);
}

TEST(Baselines, OracleRejectsUnreachableTarget) {
    const BeerLambertMixer mixer(DyeLibrary::cmyk());
    EXPECT_THROW(OracleSolver(mixer, Rgb8{255, 0, 0}), sdl::support::ConfigError);
}

// ---------------------------------------------------------------- factory

TEST(Factory, BuildsEveryRegisteredSolver) {
    const BeerLambertMixer mixer(DyeLibrary::cmyk());
    SolverOptions options;
    options.mixer = &mixer;
    for (const std::string& name : solver_names()) {
        const auto solver = make_solver(name, options);
        ASSERT_NE(solver, nullptr) << name;
        EXPECT_EQ(solver->name(), name == "bayesian" ? "bayesian" : name);
        const auto proposals = solver->ask(2);
        EXPECT_EQ(proposals.size(), 2u) << name;
    }
}

TEST(Factory, UnknownNameThrows) {
    EXPECT_THROW((void)make_solver("simulated_annealing", {}), sdl::support::ConfigError);
}

TEST(Factory, OracleWithoutMixerThrows) {
    EXPECT_THROW((void)make_solver("oracle", {}), sdl::support::ConfigError);
}

// Property sweep: every solver produces valid proposals for varied batch
// sizes, before and after feedback.
class SolverContract
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>> {};

TEST_P(SolverContract, ProposalsAlwaysValid) {
    const auto& [name, batch] = GetParam();
    const BeerLambertMixer mixer(DyeLibrary::cmyk());
    SolverOptions options;
    options.mixer = &mixer;
    options.seed = 123;
    const auto solver = make_solver(name, options);
    NoisyObjective objective(7);

    for (int round = 0; round < 3; ++round) {
        const auto proposals = solver->ask(batch);
        ASSERT_EQ(proposals.size(), batch);
        std::vector<Observation> observations;
        for (const auto& p : proposals) {
            EXPECT_TRUE(is_valid_proposal(p, 4)) << name << " round " << round;
            observations.push_back(objective.evaluate(p));
        }
        solver->tell(observations);
    }
    EXPECT_TRUE(solver->best().has_value());
}

INSTANTIATE_TEST_SUITE_P(
    AllSolvers, SolverContract,
    ::testing::Combine(::testing::Values("genetic", "bayesian", "anneal", "pattern",
                                         "random", "grid", "oracle"),
                       ::testing::Values(std::size_t{1}, std::size_t{4}, std::size_t{16})));

// ---------------------------------------------------- anneal & pattern

TEST(Anneal, TemperatureCoolsAcrossGenerations) {
    AnnealConfig config;
    config.initial_temperature = 20.0;
    config.cooling = 0.9;
    AnnealSolver solver(config);
    NoisyObjective objective(71);
    const double t0 = solver.temperature();
    for (int gen = 0; gen < 5; ++gen) {
        const auto proposals = solver.ask(4);
        std::vector<Observation> obs;
        for (const auto& p : proposals) obs.push_back(objective.evaluate(p));
        solver.tell(obs);
    }
    EXPECT_NEAR(solver.temperature(), t0 * std::pow(0.9, 5), 1e-9);
}

TEST(Anneal, ConvergesOnColorObjective) {
    AnnealConfig config;
    config.seed = 5;
    AnnealSolver solver(config);
    NoisyObjective objective(73);
    const double best = run_loop(solver, objective, 128, 4);
    EXPECT_LT(best, 15.0);
}

TEST(Anneal, ProposalsPerturbAroundState) {
    AnnealConfig config;
    config.initial_step = 0.1;
    AnnealSolver solver(config);
    // Seed a state via tell.
    Observation obs{{0.5, 0.5, 0.5, 0.5}, {100, 100, 100}, 10.0};
    solver.tell(std::vector<Observation>{obs});
    for (const auto& p : solver.ask(8)) {
        for (std::size_t d = 0; d < 4; ++d) {
            EXPECT_NEAR(p[d], 0.5, 0.1 + 1e-9);
        }
    }
}

TEST(Pattern, StepShrinksWithoutImprovement) {
    PatternConfig config;
    config.initial_step = 0.2;
    config.shrink = 0.5;
    PatternSearchSolver solver(config);
    // Cold start.
    auto initial = solver.ask(4);
    std::vector<Observation> obs;
    for (const auto& p : initial) obs.push_back({p, {0, 0, 0}, 5.0});
    solver.tell(obs);
    EXPECT_DOUBLE_EQ(solver.step(), 0.2);
    // A probe round where nothing improves on the incumbent (score 5).
    auto probes = solver.ask(8);
    obs.clear();
    for (const auto& p : probes) obs.push_back({p, {0, 0, 0}, 50.0});
    solver.tell(obs);
    EXPECT_DOUBLE_EQ(solver.step(), 0.1);
}

TEST(Pattern, ProbesAreAxisAlignedAroundIncumbent) {
    PatternSearchSolver solver;
    auto initial = solver.ask(1);
    std::vector<Observation> obs{{initial[0], {0, 0, 0}, 5.0}};
    solver.tell(obs);
    const auto probes = solver.ask(8);
    for (const auto& p : probes) {
        // Each compass probe differs from the incumbent in at most one
        // coordinate (clamping can null a move at the boundary).
        int changed = 0;
        for (std::size_t d = 0; d < 4; ++d) {
            if (std::fabs(p[d] - initial[0][d]) > 1e-12) ++changed;
        }
        EXPECT_LE(changed, 1);
    }
}

TEST(Pattern, ConvergesOnColorObjective) {
    PatternConfig config;
    config.seed = 7;
    PatternSearchSolver solver(config);
    NoisyObjective objective(79);
    const double best = run_loop(solver, objective, 128, 8);
    EXPECT_LT(best, 15.0);
}
