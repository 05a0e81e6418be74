#include "simgpu/divergence.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace repro::simgpu {
namespace {

/// Lanes the per-call stack tables hold (every modelled warp has 32).
constexpr std::uint32_t kMaxLanes = 64;
constexpr unsigned kPlacementsPerAxis = 6;

/// Normalized field coordinate of sample `s` (of 2) in the coarsened block of
/// lane-axis index `l`, for a warp anchored at `anchor` along an axis of
/// `extent` elements with coarsening factor `coarsen`.
double sample_coord(double anchor, std::uint32_t l, int s, std::uint32_t coarsen,
                    double extent) {
  const double e = anchor + (static_cast<double>(l) + (s + 0.5) / 2.0) * coarsen;
  return std::clamp(e / extent, 0.0, 0.999999);
}

/// Warp anchor in element space for placement `p`, spread across the image
/// interior.
double anchor(unsigned p, double extent) {
  return (static_cast<double>(p) + 0.5) / kPlacementsPerAxis * extent * 0.9;
}

}  // namespace

double warp_divergence_factor(const KernelConfig& config, const GpuArch& arch,
                              const GridExtent& extent, const IntensityField& field) {
  if (!field) return 1.0;
  const std::uint32_t lanes_in_warp =
      std::min<std::uint32_t>(config.wg_threads(), arch.warp_size);
  if (lanes_in_warp <= 1) return 1.0;
  if (lanes_in_warp > kMaxLanes) {
    throw std::invalid_argument("warp_divergence_factor: more than 64 lanes per warp");
  }

  const double ext_x = static_cast<double>(extent.x);
  const double ext_y = static_cast<double>(std::max<std::uint64_t>(extent.y, 1));

  // Lane coordinates once per call; the field is two-dimensional, so lz is
  // ignored. lx and ly are below lanes_in_warp.
  std::array<std::uint32_t, kMaxLanes> lane_x{}, lane_y{};
  std::uint32_t lx_count = 0, ly_count = 0;
  for (std::uint32_t lane = 0; lane < lanes_in_warp; ++lane) {
    const auto [lx, ly, lz] = lane_coords(lane, config);
    (void)lz;
    lane_x[lane] = lx;
    lane_y[lane] = ly;
    lx_count = std::max(lx_count, lx + 1);
    ly_count = std::max(ly_count, ly + 1);
  }

  // Each lane's coarsened block is averaged over a 2x2 sample of it,
  // modelling the intra-thread serialization of the block's elements.
  // Sample coordinates depend on the placement column (x) or row (y) only:
  // xs[px][lx][sx] for every column up front, ys[ly][sy] once per row.
  std::array<std::array<std::array<double, 2>, kMaxLanes>, kPlacementsPerAxis> xs;
  for (unsigned px = 0; px < kPlacementsPerAxis; ++px) {
    const double anchor_x = anchor(px, ext_x);
    for (std::uint32_t lx = 0; lx < lx_count; ++lx) {
      for (int sx = 0; sx < 2; ++sx) {
        xs[px][lx][sx] = sample_coord(anchor_x, lx, sx, config.coarsen_x, ext_x);
      }
    }
  }
  std::array<std::array<double, 2>, kMaxLanes> ys;

  double sum_max = 0.0;
  double sum_mean = 0.0;
  for (unsigned py = 0; py < kPlacementsPerAxis; ++py) {
    const double anchor_y = anchor(py, ext_y);
    for (std::uint32_t ly = 0; ly < ly_count; ++ly) {
      for (int sy = 0; sy < 2; ++sy) {
        ys[ly][sy] = sample_coord(anchor_y, ly, sy, config.coarsen_y, ext_y);
      }
    }
    for (unsigned px = 0; px < kPlacementsPerAxis; ++px) {
      double warp_max = 0.0;
      double warp_sum = 0.0;
      for (std::uint32_t lane = 0; lane < lanes_in_warp; ++lane) {
        const std::array<double, 2>& nx = xs[px][lane_x[lane]];
        const std::array<double, 2>& ny = ys[lane_y[lane]];
        double lane_work = 0.0;
        for (int sy = 0; sy < 2; ++sy) {
          for (int sx = 0; sx < 2; ++sx) {
            lane_work += std::max(0.0, field(nx[sx], ny[sy]));
          }
        }
        lane_work *= 0.25;
        warp_max = std::max(warp_max, lane_work);
        warp_sum += lane_work;
      }
      sum_max += warp_max;
      sum_mean += warp_sum / lanes_in_warp;
    }
  }
  if (sum_mean <= 0.0) return 1.0;
  return std::max(1.0, sum_max / sum_mean);
}

}  // namespace repro::simgpu
