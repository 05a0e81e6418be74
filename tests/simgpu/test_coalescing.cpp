// Coalescing analysis: hand-computed sector counts for canonical patterns
// and the fast-path == exact-path equivalence property the performance
// model relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "imagecl/benchmark_suite.hpp"
#include "simgpu/arch.hpp"
#include "simgpu/coalescing.hpp"
#include "simgpu/perf_model.hpp"
#include "tests/simgpu/model_reference.hpp"

namespace repro::simgpu {
namespace {

WarpAccessSpec streaming_spec(std::uint64_t pitch = 8192) {
  WarpAccessSpec spec;
  spec.element_bytes = 4;
  spec.pitch_x = pitch;
  spec.pitch_y = 8192;
  spec.offsets = {{0, 0, 0}};
  return spec;
}

TEST(Coalescing, UnitStrideFullWarpIsPerfect) {
  const GpuArch arch = titan_v();
  const KernelConfig config{1, 1, 1, 8, 4, 1};  // 32 lanes, contiguous x
  const auto stats = analyze_warp_accesses(config, arch, streaming_spec());
  // 8 lanes per row * 4 rows; each row of 8 floats = exactly one 32B sector.
  EXPECT_EQ(stats.steps, 1u);
  EXPECT_EQ(stats.useful_bytes, 32u * 4u);
  EXPECT_EQ(stats.transactions, 4u);
  EXPECT_EQ(stats.dram_sectors, 4u);
  EXPECT_DOUBLE_EQ(stats.dram_efficiency(arch.sector_bytes), 1.0);
  EXPECT_DOUBLE_EQ(stats.transaction_efficiency(arch.sector_bytes), 1.0);
}

TEST(Coalescing, WideRowPerfectCoalescing) {
  const GpuArch arch = titan_v();
  const KernelConfig config{1, 1, 1, 8, 8, 2};  // 128 lanes; warp covers 32 in x? no:
  // wg 8x8x2 -> first warp = lanes 0..31 = x 0..7, y 0..3.
  const auto stats = analyze_warp_accesses(config, arch, streaming_spec());
  EXPECT_DOUBLE_EQ(stats.dram_efficiency(arch.sector_bytes), 1.0);
}

TEST(Coalescing, BlockedCoarseningInflatesTransactionsNotTraffic) {
  const GpuArch arch = titan_v();
  const KernelConfig coarse{4, 1, 1, 8, 4, 1};
  const auto stats = analyze_warp_accesses(coarse, arch, streaming_spec());
  // Each lane touches 4 consecutive floats; the loop-wide footprint is
  // contiguous so DRAM efficiency stays 1, but per-step lanes are strided
  // (stride 4 floats = 16B), so each step touches ~2x the sectors.
  EXPECT_DOUBLE_EQ(stats.dram_efficiency(arch.sector_bytes), 1.0);
  EXPECT_LT(stats.transaction_efficiency(arch.sector_bytes), 0.6);
  EXPECT_EQ(stats.steps, 4u);
}

TEST(Coalescing, PartialWarpWastesSectors) {
  const GpuArch arch = titan_v();
  const KernelConfig tiny{1, 1, 1, 1, 1, 1};  // 1 lane
  const auto stats = analyze_warp_accesses(tiny, arch, streaming_spec());
  EXPECT_EQ(stats.useful_bytes, 4u);
  EXPECT_EQ(stats.dram_sectors, 1u);
  EXPECT_DOUBLE_EQ(stats.dram_efficiency(arch.sector_bytes), 4.0 / 32.0);
}

TEST(Coalescing, StencilFootprintCountsHalo) {
  const GpuArch arch = titan_v();
  WarpAccessSpec spec = streaming_spec();
  spec.offsets.clear();
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx) spec.offsets.push_back({dx, dy, 0});
  }
  const KernelConfig config{1, 1, 1, 8, 4, 1};
  const auto stats = analyze_warp_accesses(config, arch, spec);
  EXPECT_EQ(stats.steps, 9u);
  EXPECT_EQ(stats.useful_bytes, 32u * 9u * 4u);
  // Footprint: 6 rows (4 + halo 2); the x range is 10 floats starting one
  // element *before* the 256B-aligned warp base, so each row spans 3
  // sectors (bytes -4..36 relative to the sector-aligned base).
  EXPECT_EQ(stats.dram_sectors, 18u);
}

TEST(Coalescing, ElementStraddlingSectors) {
  const GpuArch arch = titan_v();
  WarpAccessSpec spec = streaming_spec();
  spec.element_bytes = 8;  // doubles: 4 elements per 32B sector
  const KernelConfig config{1, 1, 1, 8, 4, 1};
  const auto stats = analyze_warp_accesses(config, arch, spec);
  EXPECT_DOUBLE_EQ(stats.dram_efficiency(arch.sector_bytes), 1.0);
}

/// Property: the fast path must agree exactly with the brute-force path for
/// rectangular stencils on sector-aligned pitches — every field.
struct FastPathCase {
  KernelConfig config;
  int stencil_radius;
};

class CoalescingFastPath : public ::testing::TestWithParam<FastPathCase> {};

TEST_P(CoalescingFastPath, MatchesExact) {
  const GpuArch arch = titan_v();
  const auto& param = GetParam();
  WarpAccessSpec spec = streaming_spec();
  if (param.stencil_radius > 0) {
    spec.offsets.clear();
    for (int dy = -param.stencil_radius; dy <= param.stencil_radius; ++dy) {
      for (int dx = -param.stencil_radius; dx <= param.stencil_radius; ++dx) {
        spec.offsets.push_back({dx, dy, 0});
      }
    }
  }
  const auto exact = analyze_warp_accesses(param.config, arch, spec);
  const auto fast = analyze_warp_accesses_fast(param.config, arch, spec);
  EXPECT_EQ(exact.useful_bytes, fast.useful_bytes);
  EXPECT_EQ(exact.transactions, fast.transactions);
  EXPECT_EQ(exact.dram_sectors, fast.dram_sectors);
  EXPECT_EQ(exact.steps, fast.steps);
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, CoalescingFastPath,
    ::testing::Values(FastPathCase{{1, 1, 1, 8, 4, 1}, 0},
                      FastPathCase{{4, 2, 1, 8, 4, 1}, 0},
                      FastPathCase{{3, 3, 1, 4, 4, 2}, 0},
                      FastPathCase{{2, 2, 1, 8, 4, 1}, 1},
                      FastPathCase{{1, 4, 1, 8, 8, 1}, 3},
                      FastPathCase{{5, 3, 1, 2, 8, 2}, 2},
                      FastPathCase{{16, 1, 1, 1, 1, 1}, 0},
                      FastPathCase{{7, 5, 1, 3, 3, 3}, 1},
                      FastPathCase{{2, 2, 2, 4, 2, 4}, 0}));

/// Calls fn(label, config, arch, spec) for every load and store pattern of
/// every extended-suite kernel pass, on every testbed arch, for a seeded
/// sample of in-range configs clamped to the pass's extent the way
/// PerfModel::evaluate clamps them.
template <typename Fn>
void for_each_suite_case(Fn&& fn) {
  Rng rng(20261020);
  for (const auto& benchmark : imagecl::extended_suite()) {
    for (const PerfModel& pass : benchmark->passes()) {
      std::vector<const WarpAccessSpec*> patterns;
      for (const WarpAccessSpec& spec : pass.spec().loads) patterns.push_back(&spec);
      for (const WarpAccessSpec& spec : pass.spec().stores) patterns.push_back(&spec);
      for (const GpuArch& arch : testbed()) {
        for (int sample = 0; sample < 24; ++sample) {
          const KernelConfig config = pass.effective_config(
              CachedPerfModel::unpack(rng.next_below(CachedPerfModel::table_size())));
          const std::string label =
              benchmark->name() + " on " + arch.name + ", " + config.to_string();
          for (const WarpAccessSpec* spec : patterns) fn(label, config, arch, *spec);
        }
      }
    }
  }
}

/// True when warp 0's lanes fill a whole (x, y, z) box of the work-group,
/// i.e. the warp does not end in a partial row or slice.
bool lanes_fill_a_box(const KernelConfig& config, const GpuArch& arch) {
  const std::uint32_t lanes = std::min<std::uint32_t>(config.wg_threads(), arch.warp_size);
  std::uint32_t max_lx = 0, max_ly = 0, max_lz = 0;
  for (std::uint32_t lane = 0; lane < lanes; ++lane) {
    const auto [lx, ly, lz] = lane_coords(lane, config);
    max_lx = std::max(max_lx, lx);
    max_ly = std::max(max_ly, ly);
    max_lz = std::max(max_lz, lz);
  }
  return lanes == (max_lx + 1) * (max_ly + 1) * (max_lz + 1);
}

/// The property over what the model actually feeds the analysis. Where the
/// warp ends in a partial row or slice, the fast path counts DRAM sectors
/// over the lanes' bounding box, so there it may only over-count; every
/// other field stays exact.
TEST(CoalescingFastPathSampled, MatchesExactForEverySuiteSpec) {
  std::size_t boxes = 0;
  std::size_t partial = 0;
  for_each_suite_case([&](const std::string& label, const KernelConfig& config,
                          const GpuArch& arch, const WarpAccessSpec& spec) {
    SCOPED_TRACE(label);
    const auto exact = analyze_warp_accesses(config, arch, spec);
    const auto fast = analyze_warp_accesses_fast(config, arch, spec);
    EXPECT_EQ(exact.useful_bytes, fast.useful_bytes);
    EXPECT_EQ(exact.transactions, fast.transactions);
    EXPECT_EQ(exact.steps, fast.steps);
    if (lanes_fill_a_box(config, arch)) {
      ++boxes;
      EXPECT_EQ(exact.dram_sectors, fast.dram_sectors);
    } else {
      ++partial;
      EXPECT_GE(fast.dram_sectors, exact.dram_sectors);
    }
  });
  EXPECT_GT(boxes, 0u);
  EXPECT_GT(partial, 0u);
}

/// The stack-buffer fast path against the container-based copy it replaced
/// (tests/simgpu/model_reference.hpp): every field, every sampled case,
/// partial warps included.
TEST(CoalescingFastPathSampled, MatchesReferenceCopyForEverySuiteSpec) {
  for_each_suite_case([](const std::string& label, const KernelConfig& config,
                         const GpuArch& arch, const WarpAccessSpec& spec) {
    SCOPED_TRACE(label);
    const auto expected = reference::analyze_warp_accesses_fast(config, arch, spec);
    const auto fast = analyze_warp_accesses_fast(config, arch, spec);
    EXPECT_EQ(expected.useful_bytes, fast.useful_bytes);
    EXPECT_EQ(expected.transactions, fast.transactions);
    EXPECT_EQ(expected.dram_sectors, fast.dram_sectors);
    EXPECT_EQ(expected.steps, fast.steps);
  });
}

TEST(Coalescing, FastPathFallsBackOnUnalignedPitch) {
  const GpuArch arch = titan_v();
  WarpAccessSpec spec = streaming_spec(1000);  // 4000 B per row: not sector-aligned
  const KernelConfig config{2, 2, 1, 8, 4, 1};
  const auto exact = analyze_warp_accesses(config, arch, spec);
  const auto fast = analyze_warp_accesses_fast(config, arch, spec);
  EXPECT_EQ(exact.transactions, fast.transactions);
  EXPECT_EQ(exact.dram_sectors, fast.dram_sectors);
}

}  // namespace
}  // namespace repro::simgpu
