#pragma once
// Cholesky factorization for Gaussian process regression: a growable
// packed lower factor, its triangular solves and log-determinant.
//
// Two reduction regimes coexist:
//   - sequential (default): strict left-to-right inner loops, the order the
//     exact GP has always used — byte-compatible with every committed
//     campaign artifact.
//   - blocked: inner dot products route through the fixed-blocking SIMD
//     kernels in common/simd.hpp (runtime-dispatched scalar/SSE2/AVX2, all
//     bit-identical to one another but *not* to the sequential order).
// The sparse large-history GP mode enables blocked factors; the exact
// small-history path never does, so legacy outputs stay byte-identical.

#include <cstddef>
#include <span>
#include <vector>

namespace repro::tuner {

/// Growable lower Cholesky factor in packed row storage (row i holds i+1
/// entries), built one appended row at a time.
///
/// Appending row n touches only row n and performs, per entry, the same
/// column-ordered arithmetic as a dense in-place Cholesky of the full
/// (n+1)-sized matrix — sums over k ascending, then one divide by the
/// column diagonal — so growing a factor row by row is *bit-identical* to
/// refactorizing from scratch (tests/tuner/test_linalg.cpp checks this
/// against the dense reference in tests/tuner/dense_reference.hpp). This is
/// what turns the GP surrogate's per-observation refit from O(n^3) into
/// O(n^2).
class PackedCholesky {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  void clear() noexcept {
    n_ = 0;
    rows_.clear();
  }

  /// Size the storage for exactly `n` rows, so appending up to `n` rows
  /// never reallocates and leaves no growth slack behind.
  void reserve(std::size_t n) { rows_.reserve(n * (n + 1) / 2); }

  /// Route the inner reductions of append_row and the triangular solves
  /// through the blocked SIMD kernels. Must be chosen before the first
  /// append (mixing regimes inside one factor would make its rows
  /// mutually inconsistent); clear() keeps the setting.
  void set_blocked(bool blocked) noexcept { blocked_ = blocked; }
  [[nodiscard]] bool blocked() const noexcept { return blocked_; }

  /// L(r, c) for c <= r.
  [[nodiscard]] double at(std::size_t r, std::size_t c) const noexcept {
    return rows_[r * (r + 1) / 2 + c];
  }

  /// Append the next row of the underlying SPD matrix: `a_row` holds
  /// A(n, 0..n-1) followed by the diagonal A(n, n) (noise/jitter already
  /// added), length n+1 for current size n. Returns false — leaving the
  /// factor unchanged — when the new pivot is not (numerically) positive,
  /// exactly the failure condition of a dense Cholesky.
  [[nodiscard]] bool append_row(std::span<const double> a_row);

  /// Triangular solves and log-determinant. In the sequential regime they
  /// reproduce dense forward/backward substitution bit for bit.
  void solve_lower(std::span<const double> b, std::span<double> x) const;
  void solve_lower_transpose(std::span<const double> b, std::span<double> x) const;
  void solve(std::span<const double> b, std::span<double> x) const;
  [[nodiscard]] double log_diag_sum() const;

 private:
  std::size_t n_ = 0;
  bool blocked_ = false;
  std::vector<double> rows_;  ///< packed lower triangle, row-major
};

}  // namespace repro::tuner
