#include "common/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#define REPRO_SIMD_X86 1
#include <immintrin.h>
#else
#define REPRO_SIMD_X86 0
#endif

// Every kernel in this file follows the fixed-blocking contract documented
// in simd.hpp: four logical lanes, element i -> lane i % 4, lanes combined
// as (s0 + s1) + (s2 + s3), tail folded sequentially. The SSE2/AVX2 bodies
// are transcriptions of the scalar one onto wider registers, not
// re-associations of it — which is what makes the tiers bit-identical.

namespace repro::simd {
namespace {

// --- scalar tier (blocked reference) ---------------------------------------

double dot_scalar(const double* a, const double* b, std::size_t n) noexcept {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  double total = (s0 + s1) + (s2 + s3);
  for (; i < n; ++i) total += a[i] * b[i];
  return total;
}

double sqdist_scalar(const double* a, const double* b, std::size_t n) noexcept {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const double d0 = a[i] - b[i];
    const double d1 = a[i + 1] - b[i + 1];
    const double d2 = a[i + 2] - b[i + 2];
    const double d3 = a[i + 3] - b[i + 3];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  double total = (s0 + s1) + (s2 + s3);
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    total += d * d;
  }
  return total;
}

double sumsq_scalar(const double* x, std::size_t n) noexcept {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    s0 += x[i] * x[i];
    s1 += x[i + 1] * x[i + 1];
    s2 += x[i + 2] * x[i + 2];
    s3 += x[i + 3] * x[i + 3];
  }
  double total = (s0 + s1) + (s2 + s3);
  for (; i < n; ++i) total += x[i] * x[i];
  return total;
}

#if REPRO_SIMD_X86

// --- SSE2 tier: lanes {0,1} and {2,3} as two __m128d accumulators ----------

/// Combine two 2-lane accumulators as (s0 + s1) + (s2 + s3). `_mm_hadd_pd`
/// is exactly that pairwise add (lane0 + lane1 of each operand) — a fixed,
/// tier-independent order, unlike the tree-shaped reduce intrinsics the
/// reprolint nondet-reduction rule rejects. The horizontal add is SSE3, so
/// the "sse2" tier actually gates on sse3 (universal on x86-64 since 2005).
__attribute__((target("sse3"))) double combine_sse2(__m128d acc01,
                                                    __m128d acc23) noexcept {
  const __m128d pair =
      _mm_hadd_pd(acc01, acc23);  // NOLINT(reprolint-nondet-reduction) fixed (s0+s1),(s2+s3) pairwise combine; tier bit-identity asserted by tests/common/test_simd.cpp
  return _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
}

__attribute__((target("sse3"))) double dot_sse2(const double* a, const double* b,
                                                std::size_t n) noexcept {
  __m128d acc01 = _mm_setzero_pd();
  __m128d acc23 = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    acc01 = _mm_add_pd(acc01, _mm_mul_pd(_mm_loadu_pd(a + i), _mm_loadu_pd(b + i)));
    acc23 = _mm_add_pd(acc23,
                       _mm_mul_pd(_mm_loadu_pd(a + i + 2), _mm_loadu_pd(b + i + 2)));
  }
  double total = combine_sse2(acc01, acc23);
  for (; i < n; ++i) total += a[i] * b[i];
  return total;
}

__attribute__((target("sse3"))) double sqdist_sse2(const double* a, const double* b,
                                                   std::size_t n) noexcept {
  __m128d acc01 = _mm_setzero_pd();
  __m128d acc23 = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m128d d01 = _mm_sub_pd(_mm_loadu_pd(a + i), _mm_loadu_pd(b + i));
    const __m128d d23 = _mm_sub_pd(_mm_loadu_pd(a + i + 2), _mm_loadu_pd(b + i + 2));
    acc01 = _mm_add_pd(acc01, _mm_mul_pd(d01, d01));
    acc23 = _mm_add_pd(acc23, _mm_mul_pd(d23, d23));
  }
  double total = combine_sse2(acc01, acc23);
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    total += d * d;
  }
  return total;
}

__attribute__((target("sse3"))) double sumsq_sse2(const double* x,
                                                  std::size_t n) noexcept {
  __m128d acc01 = _mm_setzero_pd();
  __m128d acc23 = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m128d x01 = _mm_loadu_pd(x + i);
    const __m128d x23 = _mm_loadu_pd(x + i + 2);
    acc01 = _mm_add_pd(acc01, _mm_mul_pd(x01, x01));
    acc23 = _mm_add_pd(acc23, _mm_mul_pd(x23, x23));
  }
  double total = combine_sse2(acc01, acc23);
  for (; i < n; ++i) total += x[i] * x[i];
  return total;
}

// --- AVX2 tier: one __m256d accumulator ------------------------------------

/// Extract the four lanes and combine as (s0 + s1) + (s2 + s3) — the same
/// scalar expression the other tiers use, so no re-association sneaks in.
__attribute__((target("avx2"))) double combine_avx2(__m256d acc) noexcept {
  alignas(32) double lane[kLanes];
  _mm256_store_pd(lane, acc);
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

__attribute__((target("avx2"))) double dot_avx2(const double* a, const double* b,
                                                std::size_t n) noexcept {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_loadu_pd(a + i),
                                           _mm256_loadu_pd(b + i)));
  }
  double total = combine_avx2(acc);
  for (; i < n; ++i) total += a[i] * b[i];
  return total;
}

__attribute__((target("avx2"))) double sqdist_avx2(const double* a, const double* b,
                                                   std::size_t n) noexcept {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  double total = combine_avx2(acc);
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    total += d * d;
  }
  return total;
}

__attribute__((target("avx2"))) double sumsq_avx2(const double* x,
                                                  std::size_t n) noexcept {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256d v = _mm256_loadu_pd(x + i);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(v, v));
  }
  double total = combine_avx2(acc);
  for (; i < n; ++i) total += x[i] * x[i];
  return total;
}

#endif  // REPRO_SIMD_X86

Tier detect() noexcept {
#if REPRO_SIMD_X86
#if defined(__GNUC__) || defined(__clang__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return Tier::kAvx2;
  if (__builtin_cpu_supports("sse3")) return Tier::kSse2;
#endif
#endif
  return Tier::kScalar;
}

Tier initial_tier() noexcept {
  Tier tier = detect();
  if (const char* env = std::getenv("REPRO_SIMD")) {
    if (std::strcmp(env, "scalar") == 0) {
      tier = Tier::kScalar;
    } else if (std::strcmp(env, "sse2") == 0 && detect() >= Tier::kSse2) {
      tier = Tier::kSse2;
    } else if (std::strcmp(env, "avx2") == 0 && detect() >= Tier::kAvx2) {
      tier = Tier::kAvx2;
    }
  }
  return tier;
}

std::atomic<Tier>& active_tier_slot() noexcept {
  static std::atomic<Tier> tier{initial_tier()};
  return tier;
}

}  // namespace

Tier detected_tier() noexcept {
  static const Tier tier = detect();
  return tier;
}

Tier active_tier() noexcept {
  return active_tier_slot().load(std::memory_order_relaxed);
}

Tier set_tier(Tier tier) noexcept {
  if (tier > detected_tier()) tier = detected_tier();
  active_tier_slot().store(tier, std::memory_order_relaxed);
  return tier;
}

const char* tier_name(Tier tier) noexcept {
  switch (tier) {
    case Tier::kScalar: return "scalar";
    case Tier::kSse2: return "sse2";
    case Tier::kAvx2: return "avx2";
  }
  return "unknown";
}

double dot(const double* a, const double* b, std::size_t n) noexcept {
#if REPRO_SIMD_X86
  switch (active_tier()) {
    case Tier::kAvx2: return dot_avx2(a, b, n);
    case Tier::kSse2: return dot_sse2(a, b, n);
    case Tier::kScalar: break;
  }
#endif
  return dot_scalar(a, b, n);
}

double squared_distance(const double* a, const double* b, std::size_t n) noexcept {
#if REPRO_SIMD_X86
  switch (active_tier()) {
    case Tier::kAvx2: return sqdist_avx2(a, b, n);
    case Tier::kSse2: return sqdist_sse2(a, b, n);
    case Tier::kScalar: break;
  }
#endif
  return sqdist_scalar(a, b, n);
}

double sum_squares(const double* x, std::size_t n) noexcept {
#if REPRO_SIMD_X86
  switch (active_tier()) {
    case Tier::kAvx2: return sumsq_avx2(x, n);
    case Tier::kSse2: return sumsq_sse2(x, n);
    case Tier::kScalar: break;
  }
#endif
  return sumsq_scalar(x, n);
}

namespace seq {

double dot(const double* a, const double* b, std::size_t n) noexcept {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) total += a[i] * b[i];
  return total;
}

double squared_distance(const double* a, const double* b, std::size_t n) noexcept {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    total += d * d;
  }
  return total;
}

double sum_squares(const double* x, std::size_t n) noexcept {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) total += x[i] * x[i];
  return total;
}

double sum(const double* x, std::size_t n) noexcept {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) total += x[i];
  return total;
}

void gathered_sum_and_squares(const double* y, const std::size_t* indices,
                              std::size_t begin, std::size_t end, double& sum,
                              double& sum_squares) noexcept {
  double s = 0.0;
  double sq = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    s += y[indices[i]];
    sq += y[indices[i]] * y[indices[i]];
  }
  sum = s;
  sum_squares = sq;
}

}  // namespace seq

}  // namespace repro::simd
