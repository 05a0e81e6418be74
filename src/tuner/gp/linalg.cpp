#include "tuner/gp/linalg.hpp"

#include <cassert>
#include <cmath>

#include "common/simd.hpp"

namespace repro::tuner {

bool PackedCholesky::append_row(std::span<const double> a_row) {
  const std::size_t n = n_;
  assert(a_row.size() == n + 1);
  rows_.resize((n + 1) * (n + 2) / 2);
  double* row = rows_.data() + n * (n + 1) / 2;
  // Row entries in column order: identical arithmetic to a dense in-place
  // Cholesky, which for column k computes a(n,k) -= sum_{j<k} a(n,j)*a(k,j),
  // then divides by the column-k pivot. In blocked mode the subtracted sum runs
  // through the fixed-blocking SIMD dot instead of the sequential loop.
  for (std::size_t k = 0; k < n; ++k) {
    double value = a_row[k];
    const double* col_row = rows_.data() + k * (k + 1) / 2;
    if (blocked_) {
      value -= simd::dot(row, col_row, k);
    } else {
      for (std::size_t j = 0; j < k; ++j) value -= row[j] * col_row[j];
    }
    row[k] = value / col_row[k];
  }
  double diag = a_row[n];
  if (blocked_) {
    diag -= simd::sum_squares(row, n);
  } else {
    for (std::size_t k = 0; k < n; ++k) diag -= row[k] * row[k];
  }
  if (diag <= 0.0 || !std::isfinite(diag)) {
    rows_.resize(n * (n + 1) / 2);  // leave the factor as it was
    return false;
  }
  row[n] = std::sqrt(diag);
  n_ = n + 1;
  return true;
}

void PackedCholesky::solve_lower(std::span<const double> b, std::span<double> x) const {
  assert(b.size() == n_ && x.size() == n_);
  for (std::size_t i = 0; i < n_; ++i) {
    const double* row = rows_.data() + i * (i + 1) / 2;
    double value = b[i];
    if (blocked_) {
      value -= simd::dot(row, x.data(), i);
    } else {
      for (std::size_t k = 0; k < i; ++k) value -= row[k] * x[k];
    }
    x[i] = value / row[i];
  }
}

void PackedCholesky::solve_lower_transpose(std::span<const double> b,
                                           std::span<double> x) const {
  assert(b.size() == n_ && x.size() == n_);
  if (blocked_) {
    // The transpose walks column i, which is strided in packed-row storage;
    // gather it into a scratch row so the blocked dot sees contiguous data.
    std::vector<double> column(n_);
    for (std::size_t i = n_; i-- > 0;) {
      for (std::size_t k = i + 1; k < n_; ++k) column[k] = at(k, i);
      const double value = b[i] - simd::dot(column.data() + i + 1,
                                            x.data() + i + 1, n_ - i - 1);
      x[i] = value / at(i, i);
    }
    return;
  }
  for (std::size_t i = n_; i-- > 0;) {
    double value = b[i];
    for (std::size_t k = i + 1; k < n_; ++k) value -= at(k, i) * x[k];
    x[i] = value / at(i, i);
  }
}

void PackedCholesky::solve(std::span<const double> b, std::span<double> x) const {
  std::vector<double> tmp(n_);
  solve_lower(b, tmp);
  solve_lower_transpose(tmp, x);
}

double PackedCholesky::log_diag_sum() const {
  double sum = 0.0;
  for (std::size_t i = 0; i < n_; ++i) sum += std::log(at(i, i));
  return sum;
}

}  // namespace repro::tuner
