#include "simgpu/coalescing.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <tuple>
#include <unordered_set>

namespace repro::simgpu {

CoalescingStats analyze_warp_accesses(const KernelConfig& config, const GpuArch& arch,
                                      const WarpAccessSpec& spec) {
  CoalescingStats stats;
  const std::uint32_t lanes_in_warp =
      std::min<std::uint32_t>(config.wg_threads(), arch.warp_size);

  std::unordered_set<std::uint64_t> loop_sectors;
  std::unordered_set<std::uint64_t> step_sectors;
  loop_sectors.reserve(256);

  // One coarsened element step = one iteration of the per-thread loop; for
  // each step every lane issues one access per stencil offset.
  for (std::uint32_t k = 0; k < config.coarsen_z; ++k) {
    for (std::uint32_t j = 0; j < config.coarsen_y; ++j) {
      for (std::uint32_t i = 0; i < config.coarsen_x; ++i) {
        for (const AccessOffset& offset : spec.offsets) {
          step_sectors.clear();
          for (std::uint32_t lane = 0; lane < lanes_in_warp; ++lane) {
            const auto [lx, ly, lz] = lane_coords(lane, config);
            // Blocked coarsening: thread t covers elements
            // [t*coarsen, t*coarsen + coarsen). Place the warp away from the
            // origin so negative stencil offsets stay in-bounds.
            const std::int64_t x = static_cast<std::int64_t>(
                                       (std::uint64_t{lx} + 64) * config.coarsen_x + i) +
                                   offset.dx;
            const std::int64_t y = static_cast<std::int64_t>(
                                       (std::uint64_t{ly} + 64) * config.coarsen_y + j) +
                                   offset.dy;
            const std::int64_t z = static_cast<std::int64_t>(
                                       (std::uint64_t{lz} + 4) * config.coarsen_z + k) +
                                   offset.dz;
            const std::uint64_t element =
                spec.column_major
                    ? static_cast<std::uint64_t>(x) * spec.pitch_x +
                          static_cast<std::uint64_t>(y) +
                          static_cast<std::uint64_t>(z) * spec.pitch_x * spec.pitch_y
                    : (static_cast<std::uint64_t>(z) * spec.pitch_y +
                       static_cast<std::uint64_t>(y)) *
                              spec.pitch_x +
                          static_cast<std::uint64_t>(x);
            const std::uint64_t byte = element * spec.element_bytes;
            const std::uint64_t sector = byte / arch.sector_bytes;
            // An element may straddle a sector boundary; account both.
            const std::uint64_t last_sector =
                (byte + spec.element_bytes - 1) / arch.sector_bytes;
            for (std::uint64_t s = sector; s <= last_sector; ++s) {
              step_sectors.insert(s);
              loop_sectors.insert(s);
            }
            stats.useful_bytes += spec.element_bytes;
          }
          stats.transactions += step_sectors.size();
          ++stats.steps;
        }
      }
    }
  }
  stats.dram_sectors = loop_sectors.size();
  return stats;
}

namespace {

// Stack-buffer bounds of the fast path. Wider warps, elements wider than a
// sector and larger stencils take the exact path instead; every suite
// kernel stays far inside them (32-lane warps, 4-byte elements, at most 49
// offsets).
constexpr std::uint32_t kMaxLanes = 64;
/// An element no wider than a sector touches at most two sectors.
constexpr std::size_t kMaxStepSectors = 2 * kMaxLanes;
constexpr std::size_t kMaxOffsets = 128;

/// The fast path requires: row pitch a whole number of sectors (so y/z loop
/// steps shift the sector pattern rigidly) and a "rectangular" stencil (the
/// set of dx offsets is identical for every (dy, dz) row, so each touched
/// row's footprint is one contiguous x-range).
bool fast_path_applicable(const GpuArch& arch, const WarpAccessSpec& spec) {
  if (spec.column_major) return false;  // handled by the exact path
  if ((spec.pitch_x * spec.element_bytes) % arch.sector_bytes != 0) return false;
  const std::size_t n = spec.offsets.size();
  if (n == 0) return true;
  if (n > kMaxOffsets) return false;
  // Sorted by (dz, dy, dx) without duplicates, each (dy, dz) row is one run
  // of its distinct dx in ascending order.
  std::array<AccessOffset, kMaxOffsets> sorted;
  std::copy(spec.offsets.begin(), spec.offsets.end(), sorted.begin());
  const auto key = [](const AccessOffset& o) { return std::tuple(o.dz, o.dy, o.dx); };
  std::sort(sorted.begin(), sorted.begin() + n,
            [&](const AccessOffset& a, const AccessOffset& b) { return key(a) < key(b); });
  const auto same_row = [](const AccessOffset& a, const AccessOffset& b) {
    return a.dy == b.dy && a.dz == b.dz;
  };
  const std::size_t m = static_cast<std::size_t>(
      std::unique(sorted.begin(), sorted.begin() + n,
                  [&](const AccessOffset& a, const AccessOffset& b) {
                    return same_row(a, b) && a.dx == b.dx;
                  }) -
      sorted.begin());
  std::size_t width = 1;
  while (width < m && same_row(sorted[width], sorted[0])) ++width;
  if (m % width != 0) return false;
  // Every row must repeat the first row's dx run exactly.
  for (std::size_t i = width; i < m; ++i) {
    if (same_row(sorted[i], sorted[i - 1]) != (i % width != 0)) return false;
    if (sorted[i].dx != sorted[i % width].dx) return false;
  }
  // Contiguity of the merged x-range requires stencil dx gaps not to
  // exceed the block width; our stencils are dense so gap == 1 suffices.
  for (std::size_t i = 1; i < width; ++i) {
    if (sorted[i].dx - sorted[i - 1].dx > 1) return false;
  }
  return true;
}

}  // namespace

CoalescingStats analyze_warp_accesses_fast(const KernelConfig& config, const GpuArch& arch,
                                           const WarpAccessSpec& spec) {
  const std::uint32_t lanes_in_warp =
      std::min<std::uint32_t>(config.wg_threads(), arch.warp_size);
  if (lanes_in_warp > kMaxLanes || spec.element_bytes == 0 ||
      spec.element_bytes > arch.sector_bytes || !fast_path_applicable(arch, spec)) {
    return analyze_warp_accesses(config, arch, spec);
  }
  CoalescingStats stats;
  const std::uint64_t total_steps =
      std::uint64_t{config.coarsen_x} * config.coarsen_y * config.coarsen_z;
  stats.steps = total_steps * spec.offsets.size();
  stats.useful_bytes = std::uint64_t{lanes_in_warp} * stats.steps * spec.element_bytes;

  // Each lane's first element, once per call. Blocked coarsening: thread t
  // covers elements [t*coarsen, t*coarsen + coarsen); the warp sits away
  // from the origin so negative stencil offsets stay in-bounds.
  std::array<std::uint64_t, kMaxLanes> lane_x{}, lane_y{}, lane_z{};
  std::uint32_t max_lx = 0, max_ly = 0, max_lz = 0;
  for (std::uint32_t lane = 0; lane < lanes_in_warp; ++lane) {
    const auto [lx, ly, lz] = lane_coords(lane, config);
    lane_x[lane] = (std::uint64_t{lx} + 64) * config.coarsen_x;
    lane_y[lane] = (std::uint64_t{ly} + 64) * config.coarsen_y;
    lane_z[lane] = (std::uint64_t{lz} + 4) * config.coarsen_z;
    max_lx = std::max(max_lx, lx);
    max_ly = std::max(max_ly, ly);
    max_lz = std::max(max_lz, lz);
  }

  // Transactions: simulate only the first y/z step (j = k = 0); every other
  // (j, k) shifts all addresses by whole sectors.
  std::array<std::uint64_t, kMaxStepSectors> step_sectors;
  std::uint64_t transactions_first_row = 0;
  for (std::uint32_t i = 0; i < config.coarsen_x; ++i) {
    for (const AccessOffset& offset : spec.offsets) {
      std::size_t count = 0;
      for (std::uint32_t lane = 0; lane < lanes_in_warp; ++lane) {
        const std::int64_t x = static_cast<std::int64_t>(lane_x[lane] + i) + offset.dx;
        const std::int64_t y = static_cast<std::int64_t>(lane_y[lane]) + offset.dy;
        const std::int64_t z = static_cast<std::int64_t>(lane_z[lane]) + offset.dz;
        const std::uint64_t element =
            (static_cast<std::uint64_t>(z) * spec.pitch_y + static_cast<std::uint64_t>(y)) *
                spec.pitch_x +
            static_cast<std::uint64_t>(x);
        const std::uint64_t byte = element * spec.element_bytes;
        const std::uint64_t first = byte / arch.sector_bytes;
        const std::uint64_t last = (byte + spec.element_bytes - 1) / arch.sector_bytes;
        for (std::uint64_t s = first; s <= last; ++s) step_sectors[count++] = s;
      }
      // Lanes run x-fastest, so the sectors usually arrive sorted already.
      const auto end = step_sectors.begin() + static_cast<std::ptrdiff_t>(count);
      if (!std::is_sorted(step_sectors.begin(), end)) std::sort(step_sectors.begin(), end);
      transactions_first_row +=
          static_cast<std::uint64_t>(std::unique(step_sectors.begin(), end) - step_sectors.begin());
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
  // Lanes 0..n-1 cover a prefix [0, max] of each lane axis, so the rows the
  // loop touches, (ly + 64) * coarsen_y + j + dy over every ly <= max_ly,
  // j < coarsen_y and dy in [min_dy, max_dy], form one contiguous range (and
  // likewise the z slices); lane 0 supplies the low end of each range.
  const std::int64_t x_lo = static_cast<std::int64_t>(lane_x[0]) + min_dx;
  const std::int64_t x_hi =
      static_cast<std::int64_t>((std::uint64_t{max_lx} + 64) * config.coarsen_x +
                                config.coarsen_x - 1) +
      max_dx;
  const std::int64_t y_lo = static_cast<std::int64_t>(lane_y[0]) + min_dy;
  const std::int64_t y_hi =
      static_cast<std::int64_t>((std::uint64_t{max_ly} + 64) * config.coarsen_y +
                                config.coarsen_y - 1) +
      max_dy;
  const std::int64_t z_lo = static_cast<std::int64_t>(lane_z[0]) + min_dz;
  const std::int64_t z_hi =
      static_cast<std::int64_t>((std::uint64_t{max_lz} + 4) * config.coarsen_z +
                                config.coarsen_z - 1) +
      max_dz;
  std::uint64_t dram_sectors = 0;
  for (std::int64_t z = z_lo; z <= z_hi; ++z) {
    for (std::int64_t y = y_lo; y <= y_hi; ++y) {
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

}  // namespace repro::simgpu
