// Warp divergence model: uniform fields cost nothing, sharp fields cost
// max-over-lanes, and thread coarsening smooths lane work.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "imagecl/kernels/mandelbrot.hpp"
#include "simgpu/arch.hpp"
#include "simgpu/divergence.hpp"
#include "simgpu/perf_model.hpp"
#include "tests/simgpu/model_reference.hpp"

namespace repro::simgpu {
namespace {

const GridExtent kExtent{4096, 4096, 1};

TEST(Divergence, EmptyFieldIsNeutral) {
  EXPECT_DOUBLE_EQ(
      warp_divergence_factor({1, 1, 1, 8, 4, 1}, titan_v(), kExtent, nullptr), 1.0);
}

TEST(Divergence, UniformFieldIsNeutral) {
  const auto factor = warp_divergence_factor({1, 1, 1, 8, 4, 1}, titan_v(), kExtent,
                                             [](double, double) { return 3.0; });
  EXPECT_DOUBLE_EQ(factor, 1.0);
}

TEST(Divergence, SingleLaneWarpIsNeutral) {
  const auto factor = warp_divergence_factor({1, 1, 1, 1, 1, 1}, titan_v(), kExtent,
                                             [](double x, double) { return x; });
  EXPECT_DOUBLE_EQ(factor, 1.0);
}

TEST(Divergence, SharpFieldPenalizesWideWarps) {
  // Checkerboard at lane scale: every other column costs 10x.
  const IntensityField field = [](double x, double) {
    return (static_cast<int>(x * 4096.0) % 2 == 0) ? 10.0 : 1.0;
  };
  const double factor =
      warp_divergence_factor({1, 1, 1, 8, 4, 1}, titan_v(), kExtent, field);
  EXPECT_GT(factor, 1.2);
}

TEST(Divergence, ZeroFieldIsNeutral) {
  const auto factor = warp_divergence_factor({1, 1, 1, 8, 4, 1}, titan_v(), kExtent,
                                             [](double, double) { return 0.0; });
  EXPECT_DOUBLE_EQ(factor, 1.0);
}

TEST(Divergence, AlwaysAtLeastOne) {
  const IntensityField field = [](double x, double y) { return x * y + 0.1; };
  for (const KernelConfig& config :
       {KernelConfig{1, 1, 1, 8, 4, 1}, KernelConfig{4, 4, 1, 2, 8, 1},
        KernelConfig{16, 16, 1, 8, 8, 1}}) {
    EXPECT_GE(warp_divergence_factor(config, titan_v(), kExtent, field), 1.0);
  }
}

TEST(Divergence, CoarseningSmoothsSharpFields) {
  // Averaging a fine checkerboard inside each lane's block reduces the
  // max/mean ratio: coarse threads see the mean, fine threads the extremes.
  const IntensityField field = [](double x, double) {
    return (static_cast<int>(x * 4096.0) % 2 == 0) ? 10.0 : 1.0;
  };
  const double fine =
      warp_divergence_factor({1, 1, 1, 8, 4, 1}, titan_v(), kExtent, field);
  const double coarse =
      warp_divergence_factor({8, 1, 1, 8, 4, 1}, titan_v(), kExtent, field);
  EXPECT_LT(coarse, fine);
}

/// Bit-identity with the reference loop (tests/simgpu/model_reference.hpp)
/// over a seeded sample of in-range configs: the Mandelbrot field the model
/// runs on, plus analytic fields with smooth, sharp and negative regions, on
/// extents where the sample coordinates do and do not hit the clamp.
TEST(Divergence, MatchesReferenceLoopBitForBit) {
  const std::vector<std::pair<const char*, IntensityField>> fields = {
      {"mandelbrot", imagecl::mandelbrot_intensity_field()},
      {"bilinear", [](double x, double y) { return x * y + 0.1; }},
      {"checkerboard",
       [](double x, double) { return (static_cast<int>(x * 4096.0) % 2 == 0) ? 10.0 : 1.0; }},
      {"signed", [](double x, double y) { return std::sin(40.0 * x) * std::cos(25.0 * y); }},
  };
  const GridExtent extents[] = {kExtent, {8192, 8192, 1}, {1000, 37, 1}};
  Rng rng(20261020);
  for (int sample = 0; sample < 150; ++sample) {
    const KernelConfig config =
        CachedPerfModel::unpack(rng.next_below(CachedPerfModel::table_size()));
    const GridExtent& extent = extents[sample % 3];
    for (const auto& [name, field] : fields) {
      const double production = warp_divergence_factor(config, titan_v(), extent, field);
      const double expected =
          reference::warp_divergence_factor(config, titan_v(), extent, field);
      EXPECT_EQ(std::memcmp(&production, &expected, sizeof(double)), 0)
          << name << " field, " << config.to_string() << ": " << production << " vs "
          << expected;
    }
  }
}

}  // namespace
}  // namespace repro::simgpu
