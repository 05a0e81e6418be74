// Bit-identity contract of the fixed-blocking SIMD kernels: every dispatch
// tier must produce byte-identical reductions (memcmp on the doubles, not
// EXPECT_DOUBLE_EQ — ULP-close is not good enough for the repro guarantee),
// and the seq:: kernels must reproduce the strict left-to-right loops the
// legacy hot paths were written with.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"

namespace {

using repro::simd::Tier;

/// Deterministic, non-trivial data: mixed magnitudes so reassociation
/// actually changes low bits (uniform [0,1) sums can mask order bugs).
std::vector<double> test_data(std::uint64_t seed, std::size_t n) {
  repro::Rng rng(seed);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform(-3.0, 3.0) * (i % 7 == 0 ? 1e6 : 1.0);
  }
  return x;
}

/// Sizes straddling every blocking boundary: empty, below kLanes, exact
/// multiples, off-by-one tails, and large-enough-to-vectorize.
const std::vector<std::size_t>& test_sizes() {
  static const std::vector<std::size_t> sizes = {0,  1,  2,  3,   4,   5,
                                                 7,  8,  15, 16,  17,  64,
                                                 97, 256, 1000, 1023};
  return sizes;
}

bool bytes_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// RAII tier restore so one test's override never leaks into another.
struct TierGuard {
  Tier saved = repro::simd::active_tier();
  ~TierGuard() { repro::simd::set_tier(saved); }
};

TEST(Simd, DetectedTierIsActivatable) {
  TierGuard guard;
  const Tier detected = repro::simd::detected_tier();
  EXPECT_EQ(repro::simd::set_tier(detected), detected);
  EXPECT_EQ(repro::simd::active_tier(), detected);
}

TEST(Simd, SetTierClampsToDetected) {
  TierGuard guard;
  const Tier detected = repro::simd::detected_tier();
  const Tier granted = repro::simd::set_tier(Tier::kAvx2);
  EXPECT_LE(static_cast<int>(granted), static_cast<int>(detected));
  EXPECT_EQ(repro::simd::active_tier(), granted);
  EXPECT_EQ(repro::simd::set_tier(Tier::kScalar), Tier::kScalar);
}

TEST(Simd, TierNamesAreStable) {
  EXPECT_EQ(std::string(repro::simd::tier_name(Tier::kScalar)), "scalar");
  EXPECT_EQ(std::string(repro::simd::tier_name(Tier::kSse2)), "sse2");
  EXPECT_EQ(std::string(repro::simd::tier_name(Tier::kAvx2)), "avx2");
}

TEST(Simd, BlockedKernelsAreBitIdenticalAcrossTiers) {
  TierGuard guard;
  for (const std::size_t n : test_sizes()) {
    const std::vector<double> a = test_data(0xA11CE + n, n);
    const std::vector<double> b = test_data(0xB0B0 + n, n);

    ASSERT_EQ(repro::simd::set_tier(Tier::kScalar), Tier::kScalar);
    const double dot0 = repro::simd::dot(a.data(), b.data(), n);
    const double dist0 = repro::simd::squared_distance(a.data(), b.data(), n);
    const double sq0 = repro::simd::sum_squares(a.data(), n);

    for (const Tier tier : {Tier::kSse2, Tier::kAvx2}) {
      if (repro::simd::set_tier(tier) != tier) continue;  // unsupported here
      EXPECT_TRUE(bytes_equal(dot0, repro::simd::dot(a.data(), b.data(), n)))
          << "dot, n=" << n << ", tier=" << repro::simd::tier_name(tier);
      EXPECT_TRUE(bytes_equal(
          dist0, repro::simd::squared_distance(a.data(), b.data(), n)))
          << "sqdist, n=" << n << ", tier=" << repro::simd::tier_name(tier);
      EXPECT_TRUE(bytes_equal(sq0, repro::simd::sum_squares(a.data(), n)))
          << "sumsq, n=" << n << ", tier=" << repro::simd::tier_name(tier);
    }
  }
}

TEST(Simd, BlockedScalarMatchesFixedBlockingReference) {
  TierGuard guard;
  ASSERT_EQ(repro::simd::set_tier(Tier::kScalar), Tier::kScalar);
  for (const std::size_t n : test_sizes()) {
    const std::vector<double> a = test_data(0xC0DE + n, n);
    const std::vector<double> b = test_data(0xFACE + n, n);
    // Hand-rolled schedule: lane i % 4, combined (s0+s1)+(s2+s3), tail
    // folded sequentially after the blocked body.
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    const std::size_t blocked = n - n % repro::simd::kLanes;
    for (std::size_t i = 0; i < blocked; i += 4) {
      s0 += a[i] * b[i];
      s1 += a[i + 1] * b[i + 1];
      s2 += a[i + 2] * b[i + 2];
      s3 += a[i + 3] * b[i + 3];
    }
    double expected = (s0 + s1) + (s2 + s3);
    for (std::size_t i = blocked; i < n; ++i) expected += a[i] * b[i];
    EXPECT_TRUE(bytes_equal(expected, repro::simd::dot(a.data(), b.data(), n)))
        << "n=" << n;
  }
}

TEST(Simd, SeqKernelsMatchStrictSequentialLoops) {
  for (const std::size_t n : test_sizes()) {
    const std::vector<double> a = test_data(0x5EED + n, n);
    const std::vector<double> b = test_data(0xF00D + n, n);
    double dot = 0.0, dist = 0.0, sq = 0.0, sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      dot += a[i] * b[i];
      const double d = a[i] - b[i];
      dist += d * d;
      sq += a[i] * a[i];
      sum += a[i];
    }
    EXPECT_TRUE(bytes_equal(dot, repro::simd::seq::dot(a.data(), b.data(), n)));
    EXPECT_TRUE(bytes_equal(
        dist, repro::simd::seq::squared_distance(a.data(), b.data(), n)));
    EXPECT_TRUE(bytes_equal(sq, repro::simd::seq::sum_squares(a.data(), n)));
    EXPECT_TRUE(bytes_equal(sum, repro::simd::seq::sum(a.data(), n)));
  }
}

TEST(Simd, GatheredSumAndSquaresMatchesFusedLoop) {
  const std::size_t n = 257;
  const std::vector<double> y = test_data(0xD00D, n);
  repro::Rng rng(7);
  std::vector<std::size_t> indices(191);
  for (std::size_t& index : indices) {
    index = static_cast<std::size_t>(rng.uniform(0.0, static_cast<double>(n)));
    if (index >= n) index = n - 1;
  }
  const std::vector<std::pair<std::size_t, std::size_t>> ranges = {
      {0, indices.size()}, {3, 140}, {10, 10}, {190, 191}};
  for (const auto& [begin, end] : ranges) {
    double sum = 0.0, sq = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      const double v = y[indices[i]];
      sum += v;
      sq += v * v;
    }
    double got_sum = -1.0, got_sq = -1.0;
    repro::simd::seq::gathered_sum_and_squares(y.data(), indices.data(), begin,
                                               end, got_sum, got_sq);
    EXPECT_TRUE(bytes_equal(sum, got_sum)) << begin << ".." << end;
    EXPECT_TRUE(bytes_equal(sq, got_sq)) << begin << ".." << end;
  }
}

TEST(Simd, BlockedOrderDiffersFromSequentialOnAdversarialData) {
  // Sanity check that the bit-identity assertions above are not vacuous:
  // with mixed magnitudes the blocked and sequential orders really do
  // produce different low bits for some size (otherwise the whole seq-vs-
  // blocked split in the GP would be pointless).
  TierGuard guard;
  ASSERT_EQ(repro::simd::set_tier(Tier::kScalar), Tier::kScalar);
  bool any_difference = false;
  for (const std::size_t n : {64u, 256u, 1000u}) {
    const std::vector<double> a = test_data(0xBEEF + n, n);
    const std::vector<double> b = test_data(0xCAFE + n, n);
    const double blocked = repro::simd::dot(a.data(), b.data(), n);
    const double sequential = repro::simd::seq::dot(a.data(), b.data(), n);
    if (!bytes_equal(blocked, sequential)) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

}  // namespace
