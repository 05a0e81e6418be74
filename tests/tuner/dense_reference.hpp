#pragma once
// Dense reference linear algebra for the GP oracle tests: a row-major
// square matrix, an in-place Cholesky factorization, triangular solves and
// the log-determinant, all with strict left-to-right inner loops.
//
// This is the textbook O(n^3) path a plain GP implementation runs on every
// refit. Production code grows a PackedCholesky one row at a time instead;
// the tests hold the two to bit-identity (factor entries, solves, LML and
// predictions), so these loops must keep their exact summation order.

#include <cassert>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

namespace repro::tuner::reference {

/// Row-major square matrix.
class Matrix {
 public:
  Matrix() = default;
  explicit Matrix(std::size_t n, double fill = 0.0) : n_(n), data_(n * n, fill) {}

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] double& at(std::size_t r, std::size_t c) noexcept { return data_[r * n_ + c]; }
  [[nodiscard]] double at(std::size_t r, std::size_t c) const noexcept {
    return data_[r * n_ + c];
  }

 private:
  std::size_t n_ = 0;
  std::vector<double> data_;
};

/// In-place lower Cholesky factorization A = L L^T (upper triangle is left
/// untouched). Returns false if A is not (numerically) positive definite.
[[nodiscard]] inline bool cholesky_inplace(Matrix& a) {
  const std::size_t n = a.size();
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a.at(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= a.at(j, k) * a.at(j, k);
    if (diag <= 0.0 || !std::isfinite(diag)) return false;
    const double root = std::sqrt(diag);
    a.at(j, j) = root;
    for (std::size_t i = j + 1; i < n; ++i) {
      double value = a.at(i, j);
      for (std::size_t k = 0; k < j; ++k) value -= a.at(i, k) * a.at(j, k);
      a.at(i, j) = value / root;
    }
  }
  return true;
}

/// Lower triangle of a factorized Matrix in packed row storage (row i holds
/// i+1 entries), the layout PackedCholesky keeps.
[[nodiscard]] inline std::vector<double> packed_lower(const Matrix& l) {
  std::vector<double> rows;
  rows.reserve(l.size() * (l.size() + 1) / 2);
  for (std::size_t i = 0; i < l.size(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) rows.push_back(l.at(i, j));
  }
  return rows;
}

/// Solve L x = b with L lower-triangular (forward substitution).
inline void solve_lower(const Matrix& l, std::span<const double> b, std::span<double> x) {
  const std::size_t n = l.size();
  assert(b.size() == n && x.size() == n);
  for (std::size_t i = 0; i < n; ++i) {
    double value = b[i];
    for (std::size_t k = 0; k < i; ++k) value -= l.at(i, k) * x[k];
    x[i] = value / l.at(i, i);
  }
}

/// Solve L^T x = b with L lower-triangular (backward substitution).
inline void solve_lower_transpose(const Matrix& l, std::span<const double> b,
                                  std::span<double> x) {
  const std::size_t n = l.size();
  assert(b.size() == n && x.size() == n);
  for (std::size_t i = n; i-- > 0;) {
    double value = b[i];
    for (std::size_t k = i + 1; k < n; ++k) value -= l.at(k, i) * x[k];
    x[i] = value / l.at(i, i);
  }
}

/// Solve (L L^T) x = b given the Cholesky factor L.
inline void solve_cholesky(const Matrix& l, std::span<const double> b, std::span<double> x) {
  std::vector<double> tmp(l.size());
  solve_lower(l, b, tmp);
  solve_lower_transpose(l, tmp, x);
}

/// Sum of log of diagonal entries (log det(L) for a Cholesky factor).
[[nodiscard]] inline double log_diag_sum(const Matrix& l) {
  double sum = 0.0;
  for (std::size_t i = 0; i < l.size(); ++i) sum += std::log(l.at(i, i));
  return sum;
}

}  // namespace repro::tuner::reference
