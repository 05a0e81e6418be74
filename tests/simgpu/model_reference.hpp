#pragma once
// Reference copies of perf-model inputs for the equivalence tests: the
// container-based fast coalescing analysis (a std::map of std::sets per
// applicability check, hash sets per step, ordered sets of lane coordinates
// and touched rows), the straightforward divergence loop (lane coordinates
// and normalized sample coordinates recomputed for every lane of every
// placement) and the serial Mandelbrot render.
//
// Production counts on the stack, hoists the invariant work out of the
// divergence loop and renders rows on the thread pool; the tests hold all
// three to bit-identity with these copies, so the integer arithmetic, the
// floating-point expressions and the summation order here must stay exactly
// as they are.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <unordered_set>
#include <utility>

#include "imagecl/image.hpp"
#include "imagecl/kernels/mandelbrot.hpp"
#include "simgpu/coalescing.hpp"
#include "simgpu/divergence.hpp"

namespace repro::simgpu::reference {

inline bool fast_path_applicable(const GpuArch& arch, const WarpAccessSpec& spec) {
  if (spec.column_major) return false;  // handled by the exact path
  if ((spec.pitch_x * spec.element_bytes) % arch.sector_bytes != 0) return false;
  std::map<std::pair<std::int32_t, std::int32_t>, std::set<std::int32_t>> dx_by_row;
  for (const AccessOffset& o : spec.offsets) dx_by_row[{o.dy, o.dz}].insert(o.dx);
  const std::set<std::int32_t>* first = nullptr;
  for (const auto& [row, dxs] : dx_by_row) {
    if (!first) {
      first = &dxs;
    } else if (dxs != *first) {
      return false;
    }
  }
  if (first && first->size() > 1) {
    // Contiguity of the merged x-range requires stencil dx gaps not to
    // exceed the block width; our stencils are dense so gap == 1 suffices.
    std::int32_t prev = *first->begin();
    for (std::int32_t dx : *first) {
      if (dx - prev > 1) return false;
      prev = dx;
    }
  }
  return true;
}

inline CoalescingStats analyze_warp_accesses_fast(const KernelConfig& config,
                                                  const GpuArch& arch,
                                                  const WarpAccessSpec& spec) {
  if (!fast_path_applicable(arch, spec)) {
    return analyze_warp_accesses(config, arch, spec);
  }
  CoalescingStats stats;
  const std::uint32_t lanes_in_warp =
      std::min<std::uint32_t>(config.wg_threads(), arch.warp_size);
  const std::uint64_t total_steps =
      std::uint64_t{config.coarsen_x} * config.coarsen_y * config.coarsen_z;
  stats.steps = total_steps * spec.offsets.size();
  stats.useful_bytes = std::uint64_t{lanes_in_warp} * stats.steps * spec.element_bytes;

  // Transactions: simulate only the first y/z step (j = k = 0); every other
  // (j, k) shifts all addresses by whole sectors.
  std::unordered_set<std::uint64_t> step_sectors;
  std::uint64_t transactions_first_row = 0;
  for (std::uint32_t i = 0; i < config.coarsen_x; ++i) {
    for (const AccessOffset& offset : spec.offsets) {
      step_sectors.clear();
      for (std::uint32_t lane = 0; lane < lanes_in_warp; ++lane) {
        const auto [lx, ly, lz] = lane_coords(lane, config);
        const std::int64_t x =
            static_cast<std::int64_t>((std::uint64_t{lx} + 64) * config.coarsen_x + i) +
            offset.dx;
        const std::int64_t y =
            static_cast<std::int64_t>((std::uint64_t{ly} + 64) * config.coarsen_y) +
            offset.dy;
        const std::int64_t z =
            static_cast<std::int64_t>((std::uint64_t{lz} + 4) * config.coarsen_z) +
            offset.dz;
        const std::uint64_t element =
            (static_cast<std::uint64_t>(z) * spec.pitch_y + static_cast<std::uint64_t>(y)) *
                spec.pitch_x +
            static_cast<std::uint64_t>(x);
        const std::uint64_t byte = element * spec.element_bytes;
        const std::uint64_t first = byte / arch.sector_bytes;
        const std::uint64_t last = (byte + spec.element_bytes - 1) / arch.sector_bytes;
        for (std::uint64_t s = first; s <= last; ++s) step_sectors.insert(s);
      }
      transactions_first_row += step_sectors.size();
    }
  }
  stats.transactions =
      transactions_first_row * config.coarsen_y * config.coarsen_z;

  // Loop-unique sectors: each touched (z, y) row holds one contiguous x-byte
  // range; rows are sector-aligned (pitch precondition), so counts add up.
  std::int32_t min_dx = 0, max_dx = 0, min_dy = 0, max_dy = 0, min_dz = 0, max_dz = 0;
  for (const AccessOffset& o : spec.offsets) {
    min_dx = std::min(min_dx, o.dx);
    max_dx = std::max(max_dx, o.dx);
    min_dy = std::min(min_dy, o.dy);
    max_dy = std::max(max_dy, o.dy);
    min_dz = std::min(min_dz, o.dz);
    max_dz = std::max(max_dz, o.dz);
  }
  std::set<std::uint32_t> lx_set, ly_set, lz_set;
  for (std::uint32_t lane = 0; lane < lanes_in_warp; ++lane) {
    const auto [lx, ly, lz] = lane_coords(lane, config);
    lx_set.insert(lx);
    ly_set.insert(ly);
    lz_set.insert(lz);
  }
  const std::int64_t x_lo =
      static_cast<std::int64_t>((std::uint64_t{*lx_set.begin()} + 64) * config.coarsen_x) +
      min_dx;
  const std::int64_t x_hi =
      static_cast<std::int64_t>((std::uint64_t{*lx_set.rbegin()} + 64) * config.coarsen_x +
                                config.coarsen_x - 1) +
      max_dx;

  std::set<std::int64_t> y_rows, z_slices;
  for (std::uint32_t ly : ly_set) {
    for (std::uint32_t j = 0; j < config.coarsen_y; ++j) {
      for (std::int32_t dy = min_dy; dy <= max_dy; ++dy) {
        y_rows.insert(static_cast<std::int64_t>((std::uint64_t{ly} + 64) * config.coarsen_y + j) + dy);
      }
    }
  }
  for (std::uint32_t lz : lz_set) {
    for (std::uint32_t k = 0; k < config.coarsen_z; ++k) {
      for (std::int32_t dz = min_dz; dz <= max_dz; ++dz) {
        z_slices.insert(static_cast<std::int64_t>((std::uint64_t{lz} + 4) * config.coarsen_z + k) + dz);
      }
    }
  }
  // Note: the dy range inserted above is the full [min_dy, max_dy] span even
  // though the stencil may be sparse in y; for rectangular stencils (the
  // fast-path precondition) the span *is* the set.
  std::uint64_t dram_sectors = 0;
  for (std::int64_t z : z_slices) {
    for (std::int64_t y : y_rows) {
      const std::uint64_t row_base =
          (static_cast<std::uint64_t>(z) * spec.pitch_y + static_cast<std::uint64_t>(y)) *
          spec.pitch_x;
      const std::uint64_t lo_byte = (row_base + static_cast<std::uint64_t>(x_lo)) *
                                    spec.element_bytes;
      const std::uint64_t hi_byte = (row_base + static_cast<std::uint64_t>(x_hi)) *
                                        spec.element_bytes +
                                    spec.element_bytes - 1;
      dram_sectors += hi_byte / arch.sector_bytes - lo_byte / arch.sector_bytes + 1;
    }
  }
  stats.dram_sectors = dram_sectors;
  return stats;
}

inline double warp_divergence_factor(const KernelConfig& config, const GpuArch& arch,
                                     const GridExtent& extent, const IntensityField& field,
                                     unsigned placements_per_axis = 6) {
  if (!field) return 1.0;
  const std::uint32_t lanes_in_warp =
      std::min<std::uint32_t>(config.wg_threads(), arch.warp_size);
  if (lanes_in_warp <= 1) return 1.0;

  const double ext_x = static_cast<double>(extent.x);
  const double ext_y = static_cast<double>(std::max<std::uint64_t>(extent.y, 1));

  double sum_max = 0.0;
  double sum_mean = 0.0;
  for (unsigned py = 0; py < placements_per_axis; ++py) {
    for (unsigned px = 0; px < placements_per_axis; ++px) {
      const double anchor_x =
          (static_cast<double>(px) + 0.5) / placements_per_axis * ext_x * 0.9;
      const double anchor_y =
          (static_cast<double>(py) + 0.5) / placements_per_axis * ext_y * 0.9;
      double warp_max = 0.0;
      double warp_sum = 0.0;
      for (std::uint32_t lane = 0; lane < lanes_in_warp; ++lane) {
        const auto [lx, ly, lz] = lane_coords(lane, config);
        (void)lz;
        double lane_work = 0.0;
        for (int sy = 0; sy < 2; ++sy) {
          for (int sx = 0; sx < 2; ++sx) {
            const double ex = anchor_x +
                              (static_cast<double>(lx) + (sx + 0.5) / 2.0) *
                                  config.coarsen_x;
            const double ey = anchor_y +
                              (static_cast<double>(ly) + (sy + 0.5) / 2.0) *
                                  config.coarsen_y;
            const double nx = std::clamp(ex / ext_x, 0.0, 0.999999);
            const double ny = std::clamp(ey / ext_y, 0.0, 0.999999);
            lane_work += std::max(0.0, field(nx, ny));
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

}  // namespace repro::simgpu::reference

namespace repro::imagecl::reference {

inline Image<float> mandelbrot_render(std::size_t width, std::size_t height,
                                      std::uint32_t max_iter = kMandelbrotMaxIter) {
  Image<float> out(width, height);
  for (std::size_t y = 0; y < height; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      out.at(x, y) = static_cast<float>(
          mandelbrot_iterations(x, y, width, height, max_iter));
    }
  }
  return out;
}

}  // namespace repro::imagecl::reference
