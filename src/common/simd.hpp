#pragma once
// Runtime-dispatched SIMD primitives for the surrogate/ask hot path, built
// around one non-negotiable constraint: *reduction order is part of the
// result*. The paper's statistics assume bit-repeatable experiments, and the
// reprolint float rules forbid reductions whose accumulation order depends
// on the execution environment. A naive `_mm256_hadd_pd`-style horizontal
// sum gives a different dot product on an AVX2 host than the scalar loop
// gives on a machine without one — silent cross-host nondeterminism.
//
// The fix is a *fixed-blocking* scheme: every reduction here maintains
// exactly kLanes (= 4) independent partial sums, with element i assigned to
// lane i % kLanes, combined as (s0 + s1) + (s2 + s3), and the tail folded
// sequentially afterwards. All dispatch tiers implement that same logical
// schedule:
//
//   kScalar — four named accumulators, plain loops (the portable reference)
//   kSse2   — two __m128d accumulators (lanes {0,1} and {2,3})
//   kAvx2   — one __m256d accumulator
//
// so a blocked dot product is **bit-identical across tiers** (asserted by
// tests/common/test_simd.cpp). It is *not* bit-identical to a sequential
// left-to-right sum — which is why the legacy small-history GP/linalg paths
// keep their sequential loops (see the `seq` namespace: the canonical
// sequential kernels, centralized so the decision-tree and TPE inner loops
// share one implementation) and only the large-history sparse-GP mode
// switches to the blocked kernels.
//
// simd.cpp is compiled with -ffp-contract=off so the scalar tier cannot be
// fused into FMAs under -march=native while the intrinsic tiers stay
// mul+add — contraction would break tier bit-identity.

#include <cstddef>
#include <string>

namespace repro::simd {

/// Logical lane count of the fixed-blocking scheme (independent of the
/// physical register width of the active tier).
inline constexpr std::size_t kLanes = 4;

enum class Tier {
  kScalar = 0,  ///< blocked reference implementation, any hardware
  kSse2 = 1,    ///< 2x128-bit accumulators (x86-64 baseline)
  kAvx2 = 2,    ///< 1x256-bit accumulator
};

/// Best tier supported by this process' CPU (cached after the first call).
[[nodiscard]] Tier detected_tier() noexcept;

/// Tier used by the blocked kernels below: the detected tier, unless
/// overridden by set_tier() or the REPRO_SIMD environment variable
/// ("scalar" | "sse2" | "avx2", read once at first use; requesting an
/// unsupported tier clamps down to the detected one).
[[nodiscard]] Tier active_tier() noexcept;

/// Force a tier (clamped to detected_tier()); for tests and benchmarks.
/// Returns the tier actually activated.
Tier set_tier(Tier tier) noexcept;

[[nodiscard]] const char* tier_name(Tier tier) noexcept;

// --- blocked kernels (bit-identical across tiers, NOT sequential-order) ----

/// sum_i a[i] * b[i] under the fixed-blocking schedule.
[[nodiscard]] double dot(const double* a, const double* b, std::size_t n) noexcept;

/// sum_i (a[i] - b[i])^2 under the fixed-blocking schedule.
[[nodiscard]] double squared_distance(const double* a, const double* b,
                                      std::size_t n) noexcept;

/// sum_i x[i]^2 under the fixed-blocking schedule.
[[nodiscard]] double sum_squares(const double* x, std::size_t n) noexcept;

namespace seq {

// --- canonical sequential kernels ------------------------------------------
// Strict left-to-right accumulation: the order every pre-existing hot loop
// in this repository uses. These exist so callers that must preserve legacy
// byte-streams (exact-GP linalg, RF node statistics, TPE log-ratios) share
// one audited implementation instead of re-rolling the loop per call site.

[[nodiscard]] double dot(const double* a, const double* b, std::size_t n) noexcept;
[[nodiscard]] double squared_distance(const double* a, const double* b,
                                      std::size_t n) noexcept;
[[nodiscard]] double sum_squares(const double* x, std::size_t n) noexcept;
[[nodiscard]] double sum(const double* x, std::size_t n) noexcept;

/// Sequential sum and sum-of-squares of y[indices[i]] for i in [begin, end)
/// — the random-forest node-statistics gather loop.
void gathered_sum_and_squares(const double* y, const std::size_t* indices,
                              std::size_t begin, std::size_t end, double& sum,
                              double& sum_squares) noexcept;

}  // namespace seq

}  // namespace repro::simd
