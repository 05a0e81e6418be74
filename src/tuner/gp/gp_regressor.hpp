#pragma once
// Gaussian process regression with a Matérn-5/2 kernel plus white noise —
// the surrogate behind scikit-optimize's gp_minimize, which the paper uses
// for BO GP (Section VI-B). Targets are standardized internally; inputs are
// expected in [0,1]^d (ParamSpace::normalize).
//
// Hot path: SMBO refits the surrogate after *every* observation, so a naive
// implementation refactorizes a dense Cholesky from scratch each step —
// O(n^3) per step, O(n^4) per experiment. This regressor instead keeps one
// *growing* factor per hyperparameter candidate (the MAP grid in
// optimize_hyperparams re-fits the same training set under ~15 candidates):
// when fit() is called with the previous training set plus appended rows,
// each candidate's factor is extended row by row in O(n^2) using
// PackedCholesky::append_row, whose arithmetic is bit-identical to a full
// refactorization. The pairwise-distance matrix is likewise cached and
// grown incrementally (it is hyperparameter-independent), so kernel
// rebuilds cost O(n^2) matérn evaluations instead of O(n^2 d) distance
// computations per candidate. All cached paths produce bit-identical
// chol_/alpha_/lml_ to a dense from-scratch fit; tests/tuner/test_gp.cpp
// checks this against a test-side reference implementation.
//
// Large histories: even the O(n^2) incremental refit stops scaling once the
// history grows to tens of thousands of points. Above a configurable
// threshold the regressor switches to a subset-of-data sparse mode: a
// deterministic, seeded landmark core sampled from the history plus a tail
// of every point observed since the last landmark refresh. The active set
// stays O(landmarks + tail) regardless of n, the tail appends reuse the
// same PackedCholesky fast path, and refreshes re-select the core at
// geometrically spaced history sizes. Landmark selection is a pure function
// of (seed, options, n) — two runs over the same history pick identical
// cores. Sparse-mode arithmetic runs through the blocked SIMD kernels of
// common/simd.hpp (bit-identical across dispatch tiers); the exact
// small-history mode keeps the legacy sequential order, byte-compatible
// with every committed campaign artifact.

#include <cstdint>
#include <span>
#include <vector>

#include "tuner/gp/linalg.hpp"

namespace repro::tuner {

struct GpHyperparams {
  double lengthscale = 0.3;   ///< isotropic, in normalized input space
  double signal_variance = 1.0;
  double noise_variance = 1e-2;
};

/// Matérn-5/2 covariance between two points at distance r (scaled by ell).
[[nodiscard]] double matern52(double r, double lengthscale, double signal_variance);

struct GpPrediction {
  double mean = 0.0;
  double variance = 0.0;  ///< posterior variance (>= 0), in standardized units
};

/// Which surrogate regime the last fit ran under.
enum class SurrogateMode {
  kExact,   ///< full history, sequential arithmetic (legacy byte-stream)
  kSparse,  ///< landmark subset, blocked SIMD arithmetic
};

[[nodiscard]] const char* surrogate_mode_name(SurrogateMode mode) noexcept;

/// Subset-of-data fallback for large histories. Sparse mode engages iff
/// `threshold > 0 && landmarks > 0 && n > threshold`; the defaults sit far
/// above the paper protocol's train-set caps (BoGpOptions::max_train_points
/// = 120), so paper studies never leave exact mode unless a caller opts in.
struct SparseGpOptions {
  std::size_t threshold = 2048;  ///< activate above this many points (0 = never)
  std::size_t landmarks = 512;   ///< core size sampled from the history (0 = never)
  std::uint64_t seed = 0x51A2CE6Bu;  ///< landmark-selection stream
  double refresh_factor = 1.25;  ///< re-select the core when n grows by this factor

  [[nodiscard]] bool enabled() const noexcept { return threshold > 0 && landmarks > 0; }
};

class GpRegressor {
 public:
  explicit GpRegressor(GpHyperparams hyper = {}) : hyper_(hyper) {}

  /// Fit on normalized inputs and raw targets. Targets are standardized
  /// internally (mean 0, stddev 1). Returns false when the covariance
  /// matrix is not positive definite even after jitter escalation.
  bool fit(std::span<const std::vector<double>> X, std::span<const double> y);

  /// Posterior at a normalized input; mean is de-standardized, variance is
  /// reported in (de-standardized) target units squared.
  [[nodiscard]] GpPrediction predict(std::span<const double> x) const;

  /// Log marginal likelihood of the current fit (standardized units).
  [[nodiscard]] double log_marginal_likelihood() const noexcept { return lml_; }

  /// Maximize the LML over (lengthscale, noise) with a coarse-to-fine
  /// coordinate grid search, then refit. Requires at least 2 points.
  bool optimize_hyperparams(std::span<const std::vector<double>> X,
                            std::span<const double> y);

  [[nodiscard]] const GpHyperparams& hyperparams() const noexcept { return hyper_; }
  void set_hyperparams(const GpHyperparams& hyper) noexcept { hyper_ = hyper; }
  [[nodiscard]] bool fitted() const noexcept { return fitted_; }
  [[nodiscard]] std::size_t num_points() const noexcept { return X_.size(); }

  /// Current factor / weights (exposed for the reference-oracle tests).
  [[nodiscard]] const PackedCholesky& cholesky() const noexcept { return chol_; }
  [[nodiscard]] std::span<const double> alpha() const noexcept { return alpha_; }

  /// Cache-effectiveness counters (appended rows vs from-scratch columns).
  [[nodiscard]] std::size_t incremental_rows() const noexcept { return stat_rows_incremental_; }
  [[nodiscard]] std::size_t full_refactorizations() const noexcept { return stat_full_refits_; }

  /// Large-history sparse fallback. Changing the options resets all cached
  /// state (factors, distances, landmark core); the next fit re-derives
  /// everything from the new configuration.
  void set_sparse_options(const SparseGpOptions& options);
  [[nodiscard]] const SparseGpOptions& sparse_options() const noexcept { return sparse_; }

  /// Regime of the last fit, landmark-refresh count, and current core size.
  [[nodiscard]] SurrogateMode mode() const noexcept { return mode_; }
  [[nodiscard]] std::size_t sparse_refreshes() const noexcept { return stat_sparse_refreshes_; }
  [[nodiscard]] std::size_t landmarks_active() const noexcept { return core_.size(); }

 private:
  [[nodiscard]] double kernel(std::span<const double> a, std::span<const double> b) const;

  /// Euclidean distance between cached training rows i and j (i > j),
  /// summed in dimension order exactly as kernel() does.
  [[nodiscard]] double distance(std::size_t i, std::size_t j) const;

  /// Grow dist_ with rows [from, X_.size()).
  void extend_distances(std::size_t from);

  /// Factor state for one hyperparameter candidate. `jitter` is the ladder
  /// value the last successful factorization used; the minimal workable
  /// ladder value never decreases as rows are appended (a failing leading
  /// submatrix fails the whole factorization), so smaller values are
  /// skipped without re-trying them — exactly reproducing what a full
  /// refit's jitter escalation would conclude.
  struct CandidateState {
    GpHyperparams hyper;
    PackedCholesky chol;
    double jitter = 0.0;
    bool failed = false;  ///< every ladder value failed (at chol.size()+ rows)
  };

  [[nodiscard]] CandidateState* find_candidate(const GpHyperparams& hyper);

  /// Append rows [state.chol.size(), n) to a candidate factor at its
  /// current jitter, escalating (from-scratch refactorization at the next
  /// ladder values) when an appended pivot fails. Returns false when the
  /// ladder is exhausted. Bit-identical to a dense from-scratch fit.
  bool factorize(CandidateState& state, std::size_t n);

  /// From-scratch factorization at one jitter value via append_row.
  bool refactorize_at(PackedCholesky& chol, std::size_t n, double jitter);

  /// Solve for alpha_ and the LML given the current factor and targets.
  void finish_fit(std::span<const double> y);

  /// Fit on an already-projected training set (the full history in exact
  /// mode, the landmark core + tail in sparse mode). Arithmetic regime is
  /// taken from blocked_.
  bool fit_on(std::span<const std::vector<double>> X, std::span<const double> y);

  /// Largest landmark-refresh grid value <= n: threshold, then geometric
  /// growth by refresh_factor. Pure in (options, n).
  [[nodiscard]] std::size_t sparse_basis(std::size_t n) const noexcept;

  GpHyperparams hyper_;
  SparseGpOptions sparse_;
  SurrogateMode mode_ = SurrogateMode::kExact;
  bool blocked_ = false;  ///< arithmetic regime; tracks mode_
  std::size_t basis_ = 0;            ///< history size the core was drawn from
  std::vector<std::size_t> core_;    ///< landmark indices, ascending
  std::vector<std::vector<double>> X_;
  std::vector<double> dist_;    ///< packed pairwise distances, row i has i entries
  std::vector<CandidateState> candidates_;
  std::vector<double> alpha_;   ///< (K + sigma^2 I)^{-1} y_standardized
  PackedCholesky chol_;         ///< lower Cholesky factor of the active fit
  double y_mean_ = 0.0;
  double y_std_ = 1.0;
  double lml_ = 0.0;
  bool fitted_ = false;
  std::size_t stat_rows_incremental_ = 0;
  std::size_t stat_full_refits_ = 0;
  std::size_t stat_sparse_refreshes_ = 0;
};

}  // namespace repro::tuner
