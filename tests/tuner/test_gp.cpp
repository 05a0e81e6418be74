// Gaussian process regressor: kernel shape, interpolation, uncertainty,
// hyperparameter selection, the Expected Improvement acquisition, and bit
// identity of the append-row refits against a dense reference fit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "stats/descriptive.hpp"
#include "tests/tuner/dense_reference.hpp"
#include "tuner/gp/bo_gp.hpp"
#include "tuner/gp/gp_regressor.hpp"

namespace repro::tuner {
namespace {

TEST(Matern52, KernelShape) {
  EXPECT_DOUBLE_EQ(matern52(0.0, 0.5, 2.0), 2.0);  // k(0) = signal variance
  // Monotone decreasing in distance.
  double previous = matern52(0.0, 0.5, 1.0);
  for (double r = 0.1; r < 3.0; r += 0.1) {
    const double value = matern52(r, 0.5, 1.0);
    EXPECT_LT(value, previous);
    previous = value;
  }
  // Longer lengthscale decays more slowly.
  EXPECT_GT(matern52(1.0, 2.0, 1.0), matern52(1.0, 0.2, 1.0));
}

std::vector<std::vector<double>> grid_points(int n) {
  std::vector<std::vector<double>> xs;
  for (int i = 0; i < n; ++i) xs.push_back({static_cast<double>(i) / (n - 1)});
  return xs;
}

TEST(GpRegressor, RejectsBadTrainingSet) {
  GpRegressor gp;
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  EXPECT_THROW((void)gp.fit(x, y), std::invalid_argument);
  EXPECT_THROW((void)gp.predict(std::vector<double>{0.0}), std::logic_error);
}

TEST(GpRegressor, InterpolatesWithLowNoise) {
  GpRegressor gp(GpHyperparams{0.3, 1.0, 1e-8});
  const auto x = grid_points(7);
  std::vector<double> y;
  for (const auto& p : x) y.push_back(std::sin(4.0 * p[0]));
  ASSERT_TRUE(gp.fit(x, y));
  for (std::size_t i = 0; i < x.size(); ++i) {
    const GpPrediction prediction = gp.predict(x[i]);
    EXPECT_NEAR(prediction.mean, y[i], 1e-3);
    EXPECT_LT(prediction.variance, 1e-3);
  }
}

TEST(GpRegressor, UncertaintyGrowsAwayFromData) {
  GpRegressor gp(GpHyperparams{0.1, 1.0, 1e-6});
  const auto x = grid_points(5);  // in [0, 1]
  const std::vector<double> y = {0.0, 1.0, 0.5, -0.5, 0.2};
  ASSERT_TRUE(gp.fit(x, y));
  const double var_near = gp.predict(std::vector<double>{0.5}).variance;
  const double var_far = gp.predict(std::vector<double>{3.0}).variance;
  EXPECT_GT(var_far, var_near);
}

TEST(GpRegressor, PredictionBetweenPointsIsSmooth) {
  GpRegressor gp(GpHyperparams{0.5, 1.0, 1e-6});
  const std::vector<std::vector<double>> x = {{0.0}, {1.0}};
  const std::vector<double> y = {0.0, 10.0};
  ASSERT_TRUE(gp.fit(x, y));
  const double mid = gp.predict(std::vector<double>{0.5}).mean;
  EXPECT_GT(mid, 2.0);
  EXPECT_LT(mid, 8.0);
}

TEST(GpRegressor, MeanRevertsToDataMeanFarAway) {
  GpRegressor gp(GpHyperparams{0.2, 1.0, 1e-4});
  const auto x = grid_points(6);
  const std::vector<double> y = {4.0, 6.0, 5.0, 5.5, 4.5, 5.0};  // mean 5
  ASSERT_TRUE(gp.fit(x, y));
  EXPECT_NEAR(gp.predict(std::vector<double>{50.0}).mean, 5.0, 0.2);
}

TEST(GpRegressor, HyperparameterSearchPrefersExplainingLengthscale) {
  // A slowly varying function should select a long-ish lengthscale, and the
  // optimized LML must be at least as good as both extreme fixed choices.
  repro::Rng rng(3);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 25; ++i) {
    const double p = rng.uniform(0.0, 1.0);
    x.push_back({p});
    y.push_back(std::sin(3.0 * p) + 0.02 * rng.normal());
  }
  GpRegressor gp;
  ASSERT_TRUE(gp.optimize_hyperparams(x, y));
  const double optimized_lml = gp.log_marginal_likelihood();

  GpRegressor short_gp(GpHyperparams{0.1, 1.0, 1e-3});
  GpRegressor long_gp(GpHyperparams{1.0, 1.0, 1e-1});
  ASSERT_TRUE(short_gp.fit(x, y));
  ASSERT_TRUE(long_gp.fit(x, y));
  EXPECT_GE(optimized_lml + 1e-9, short_gp.log_marginal_likelihood());
  EXPECT_GE(optimized_lml + 1e-9, long_gp.log_marginal_likelihood());
}

TEST(GpRegressor, SurvivesDuplicatePoints) {
  GpRegressor gp(GpHyperparams{0.3, 1.0, 1e-10});
  const std::vector<std::vector<double>> x = {{0.5}, {0.5}, {0.5}};
  const std::vector<double> y = {1.0, 1.1, 0.9};
  EXPECT_TRUE(gp.fit(x, y));  // jitter escalation must rescue this
  EXPECT_NEAR(gp.predict(std::vector<double>{0.5}).mean, 1.0, 0.2);
}

TEST(ExpectedImprovement, ZeroVarianceIsDeterministicImprovement) {
  EXPECT_DOUBLE_EQ(expected_improvement(5.0, 0.0, 4.0), 0.0);
  EXPECT_DOUBLE_EQ(expected_improvement(3.0, 0.0, 4.0), 1.0);
}

TEST(ExpectedImprovement, IncreasesWithUncertainty) {
  const double low = expected_improvement(5.0, 0.01, 4.0);
  const double high = expected_improvement(5.0, 4.0, 4.0);
  EXPECT_GT(high, low);
}

TEST(ExpectedImprovement, DecreasesWithWorseMean) {
  const double good = expected_improvement(3.9, 1.0, 4.0);
  const double bad = expected_improvement(6.0, 1.0, 4.0);
  EXPECT_GT(good, bad);
}

TEST(ExpectedImprovement, NonNegative) {
  for (double mean : {-5.0, 0.0, 5.0, 50.0}) {
    for (double variance : {0.0, 0.1, 10.0}) {
      EXPECT_GE(expected_improvement(mean, variance, 1.0), 0.0);
    }
  }
}


// --- persistent (append-row) regressor vs a dense reference fit -------------

/// A plain GP fit, the textbook way: standardize the targets, build the
/// dense covariance and factorize it from scratch, walking the jitter
/// ladder 1e-10, 1e-8, ..., 1e-2 until a factorization succeeds.
struct ReferenceGp {
  GpHyperparams hyper;
  double jitter = 0.0;
  reference::Matrix chol;
  std::vector<double> alpha;
  double lml = 0.0;
  double y_mean = 0.0;
  double y_std = 1.0;
  std::vector<std::vector<double>> x;
};

double reference_kernel(const GpHyperparams& hyper, std::span<const double> a,
                        std::span<const double> b) {
  const double sq = simd::seq::squared_distance(a.data(), b.data(), a.size());
  return matern52(std::sqrt(sq), hyper.lengthscale, hyper.signal_variance);
}

std::optional<ReferenceGp> reference_fit(const GpHyperparams& hyper,
                                         const std::vector<std::vector<double>>& x,
                                         const std::vector<double>& y) {
  const std::size_t n = x.size();
  ReferenceGp fit;
  fit.hyper = hyper;
  fit.x = x;
  fit.y_mean = stats::mean(y);
  fit.y_std = std::max(stats::stddev(y), 1e-12);
  std::vector<double> ys(n);
  for (std::size_t i = 0; i < n; ++i) ys[i] = (y[i] - fit.y_mean) / fit.y_std;
  for (double jitter = 1e-10; jitter <= 1e-2; jitter *= 100.0) {
    reference::Matrix k(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        const double value = reference_kernel(hyper, x[i], x[j]);
        k.at(i, j) = value;
        k.at(j, i) = value;
      }
      k.at(i, i) += hyper.noise_variance + jitter;
    }
    if (!reference::cholesky_inplace(k)) continue;
    fit.jitter = jitter;
    fit.chol = std::move(k);
    fit.alpha.assign(n, 0.0);
    reference::solve_cholesky(fit.chol, ys, fit.alpha);
    fit.lml = -0.5 * simd::seq::dot(ys.data(), fit.alpha.data(), n) -
              reference::log_diag_sum(fit.chol) -
              0.5 * static_cast<double>(n) * std::log(2.0 * 3.14159265358979323846);
    return fit;
  }
  return std::nullopt;
}

GpPrediction reference_predict(const ReferenceGp& fit, std::span<const double> query) {
  const std::size_t n = fit.x.size();
  std::vector<double> k_star(n);
  for (std::size_t i = 0; i < n; ++i) k_star[i] = reference_kernel(fit.hyper, query, fit.x[i]);
  GpPrediction out;
  out.mean = simd::seq::dot(k_star.data(), fit.alpha.data(), n) * fit.y_std + fit.y_mean;
  std::vector<double> v(n);
  reference::solve_lower(fit.chol, k_star, v);
  const double var_std =
      std::max(0.0, fit.hyper.signal_variance + fit.hyper.noise_variance -
                        simd::seq::sum_squares(v.data(), n));
  out.variance = var_std * fit.y_std * fit.y_std;
  return out;
}

/// The MAP grid search optimize_hyperparams runs (lengthscale x noise grid,
/// lognormal priors, first strict maximum wins), over reference fits.
/// Returns `start` when no grid point fits.
GpHyperparams reference_map(const GpHyperparams& start,
                            const std::vector<std::vector<double>>& x,
                            const std::vector<double>& y) {
  const auto log_prior = [](const GpHyperparams& h) {
    const double dl = std::log(h.lengthscale / 0.5);
    const double dn = std::log(h.noise_variance / 1e-2);
    return -0.5 * (dl * dl) / (0.8 * 0.8) - 0.5 * (dn * dn) / (2.0 * 2.0);
  };
  GpHyperparams best = start;
  double best_posterior = -std::numeric_limits<double>::infinity();
  for (double lengthscale : {0.1, 0.2, 0.35, 0.6, 1.0}) {
    for (double noise : {1e-3, 1e-2, 1e-1}) {
      const GpHyperparams hyper{lengthscale, 1.0, noise};
      const std::optional<ReferenceGp> fit = reference_fit(hyper, x, y);
      if (!fit) continue;
      const double posterior = fit->lml + log_prior(hyper);
      if (posterior > best_posterior) {
        best_posterior = posterior;
        best = hyper;
      }
    }
  }
  return best;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

/// Hyperparameters, factor, weights, LML and one prediction, bit for bit.
::testing::AssertionResult matches_reference(const GpRegressor& gp, const ReferenceGp& ref,
                                              std::span<const double> query) {
  if (gp.hyperparams().lengthscale != ref.hyper.lengthscale ||
      gp.hyperparams().signal_variance != ref.hyper.signal_variance ||
      gp.hyperparams().noise_variance != ref.hyper.noise_variance) {
    return ::testing::AssertionFailure() << "hyperparameters differ";
  }
  const PackedCholesky& chol = gp.cholesky();
  if (chol.size() != ref.chol.size()) {
    return ::testing::AssertionFailure()
           << "factor size " << chol.size() << " vs " << ref.chol.size();
  }
  for (std::size_t i = 0; i < chol.size(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      if (!same_bits(chol.at(i, j), ref.chol.at(i, j))) {
        return ::testing::AssertionFailure() << "chol(" << i << "," << j << ")";
      }
    }
  }
  const std::span<const double> alpha = gp.alpha();
  if (alpha.size() != ref.alpha.size()) return ::testing::AssertionFailure() << "alpha size";
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    if (!same_bits(alpha[i], ref.alpha[i])) {
      return ::testing::AssertionFailure() << "alpha[" << i << "]";
    }
  }
  if (!same_bits(gp.log_marginal_likelihood(), ref.lml)) {
    return ::testing::AssertionFailure() << "LML";
  }
  const GpPrediction got = gp.predict(query);
  const GpPrediction want = reference_predict(ref, query);
  if (!same_bits(got.mean, want.mean)) return ::testing::AssertionFailure() << "mean";
  if (!same_bits(got.variance, want.variance)) {
    return ::testing::AssertionFailure() << "variance";
  }
  return ::testing::AssertionSuccess();
}

TEST(GpRegressor, IncrementalFitBitIdenticalToReference) {
  // Grow a training set one observation at a time, as BO GP does, and
  // compare one persistent regressor (its factors grow by appended rows)
  // against a dense from-scratch reference fit at every step, including
  // through the MAP hyperparameter searches.
  repro::Rng rng(1234);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;

  GpRegressor gp;
  GpHyperparams hyper;  // the reference's current hyperparameters
  const std::vector<double> query = {0.3, 0.8, 0.1, 0.6, 0.4, 0.9};
  for (std::size_t step = 0; step < 60; ++step) {
    std::vector<double> point(6);
    for (auto& v : point) v = rng.uniform();
    double target = 0.0;
    for (double v : point) target += (v - 0.5) * (v - 0.5);
    xs.push_back(std::move(point));
    ys.push_back(target + 0.05 * rng.normal());
    if (xs.size() < 2) continue;

    bool ok = false;
    if (step % 20 == 0) {
      ok = gp.optimize_hyperparams(xs, ys);
      hyper = reference_map(hyper, xs, ys);
    } else {
      ok = gp.fit(xs, ys);
    }
    const std::optional<ReferenceGp> ref = reference_fit(hyper, xs, ys);
    ASSERT_EQ(ok, ref.has_value()) << "step " << step;
    if (!ok) continue;
    ASSERT_TRUE(matches_reference(gp, *ref, query)) << "step " << step;
  }
  // The incremental machinery actually engaged (appends dominate).
  EXPECT_GT(gp.incremental_rows(), 100u);
}

TEST(GpRegressor, IncrementalHandlesNonPrefixRefit) {
  // Replacing the training set (e.g. BO GP past its max_train_points cap
  // keeps best+recent halves, which is not a prefix) must reset the caches
  // and still match the reference bitwise.
  repro::Rng rng(99);
  auto make_set = [&](std::size_t n) {
    std::pair<std::vector<std::vector<double>>, std::vector<double>> set;
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<double> point(4);
      for (auto& v : point) v = rng.uniform();
      set.second.push_back(point[0] + 0.2 * point[2] + 0.01 * rng.normal());
      set.first.push_back(std::move(point));
    }
    return set;
  };

  GpRegressor gp;
  const auto first = make_set(20);
  ASSERT_TRUE(gp.fit(first.first, first.second));
  // Entirely different set of a smaller size: not a prefix.
  const auto second = make_set(15);
  ASSERT_TRUE(gp.fit(second.first, second.second));
  const std::optional<ReferenceGp> ref = reference_fit(GpHyperparams{}, second.first,
                                                       second.second);
  ASSERT_TRUE(ref.has_value());
  EXPECT_TRUE(matches_reference(gp, *ref, std::vector<double>{0.2, 0.7, 0.4, 0.9}));
}

TEST(GpRegressor, IncrementalSurvivesNonSpdEscalation) {
  // Signal variance 2^20 and no noise: the smallest jitter (1e-10) is
  // below half an ulp of the diagonal, so it rounds away, and with a
  // power-of-two pivot a duplicated point's Schur complement cancels to
  // exactly zero. The factorization fails and the ladder escalates.
  // Appending the duplicates to a factor built at the bottom of the ladder
  // must end at the same jitter, hence the same factor, as a from-scratch
  // reference fit.
  const GpHyperparams hyper{0.3, 1048576.0, 0.0};
  GpRegressor gp(hyper);
  std::vector<std::vector<double>> xs = {{0.5}, {0.9}};
  std::vector<double> ys = {1.0, 2.0};
  ASSERT_TRUE(gp.fit(xs, ys));
  const std::optional<ReferenceGp> distinct = reference_fit(hyper, xs, ys);
  ASSERT_TRUE(distinct.has_value());
  EXPECT_EQ(distinct->jitter, 1e-10);
  EXPECT_TRUE(matches_reference(gp, *distinct, std::vector<double>{0.7}));

  xs.insert(xs.end(), {{0.5}, {0.5}});
  ys.insert(ys.end(), {1.0, 1.0});
  const bool ok = gp.fit(xs, ys);
  const std::optional<ReferenceGp> duplicated = reference_fit(hyper, xs, ys);
  ASSERT_EQ(ok, duplicated.has_value());
  ASSERT_TRUE(ok);
  EXPECT_GT(duplicated->jitter, 1e-10);
  EXPECT_TRUE(matches_reference(gp, *duplicated, std::vector<double>{0.7}));
}

}  // namespace
}  // namespace repro::tuner
