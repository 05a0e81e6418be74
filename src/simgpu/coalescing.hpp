#pragma once
// Warp-level memory coalescing analysis.
//
// Instead of a hand-waved efficiency formula, we enumerate the addresses one
// representative warp issues over its whole coarsened loop for a given
// access pattern, and count 32-byte sectors two ways:
//
//  - `transactions`: unique sectors per *step* (one step = one load/store
//    instruction executed by all lanes), summed over steps. This measures
//    LSU/interconnect work; scattered lanes (e.g. blocked x-coarsening with
//    large coarsen_x) inflate it even when caches absorb the traffic.
//  - `dram_sectors`: unique sectors over the *entire* loop, modelling
//    perfect intra-warp L1 reuse. This measures compulsory DRAM traffic.
//
// The trace-based Device engine (device.hpp) performs the same counting on
// real executions, which the tests use to validate this analysis.

#include <cstdint>
#include <vector>

#include "simgpu/launch.hpp"

namespace repro::simgpu {

/// Relative element offsets a thread touches per coarsened element
/// (stencil footprint); {0,0,0} for a pure streaming access.
struct AccessOffset {
  std::int32_t dx = 0;
  std::int32_t dy = 0;
  std::int32_t dz = 0;
};

/// Describes one buffer access pattern of a kernel.
struct WarpAccessSpec {
  std::uint32_t element_bytes = 4;
  std::uint64_t pitch_x = 1;  ///< elements per row (row-major)
  std::uint64_t pitch_y = 1;  ///< rows per slice
  std::vector<AccessOffset> offsets{{0, 0, 0}};
  /// Column-major addressing: element (x, y) lives at x*pitch_x + y —
  /// the transposed-output pattern of matrix/image transpose kernels.
  /// Deliberately uncoalesced along warp lanes.
  bool column_major = false;
};

struct CoalescingStats {
  std::uint64_t useful_bytes = 0;   ///< bytes the lanes actually consume
  std::uint64_t transactions = 0;   ///< per-step unique sectors, summed
  std::uint64_t dram_sectors = 0;   ///< loop-wide unique sectors
  std::uint64_t steps = 0;          ///< load/store instructions issued

  /// Fraction of DRAM traffic that is useful (<= 1).
  [[nodiscard]] double dram_efficiency(std::uint32_t sector_bytes) const noexcept {
    const std::uint64_t moved = dram_sectors * sector_bytes;
    return moved == 0 ? 1.0 : static_cast<double>(useful_bytes) / static_cast<double>(moved);
  }
  /// Fraction of LSU transaction bandwidth that is useful (<= 1).
  [[nodiscard]] double transaction_efficiency(std::uint32_t sector_bytes) const noexcept {
    const std::uint64_t moved = transactions * sector_bytes;
    return moved == 0 ? 1.0 : static_cast<double>(useful_bytes) / static_cast<double>(moved);
  }
};

/// Analyze one representative full warp of the launch (lanes of warp 0 of a
/// work-group away from the grid edge) executing its blocked coarsening loop
/// against the given access pattern.
[[nodiscard]] CoalescingStats analyze_warp_accesses(const KernelConfig& config,
                                                    const GpuArch& arch,
                                                    const WarpAccessSpec& spec);

/// Fast equivalent of analyze_warp_accesses that exploits two structural
/// facts of blocked row-major patterns: (1) when the row pitch in bytes is a
/// multiple of the sector size, every y/z step of the coarsening loop issues
/// a sector pattern identical to the first (shifted whole sectors), so only
/// one step-row must be simulated; (2) a warp's loop-wide footprint in each
/// touched row is a contiguous byte range, so loop-unique sectors can be
/// counted per row without a set over every access. Falls back to the exact
/// routine when the pitch precondition does not hold. Loop-unique sectors
/// are counted over the bounding box of the warp's lanes: equal to the
/// exact routine when the lanes fill whole rows and slices of the
/// work-group, an over-count when the warp ends in a partial row or slice
/// (tests assert both, and equality of every other field). Allocation-free.
[[nodiscard]] CoalescingStats analyze_warp_accesses_fast(const KernelConfig& config,
                                                         const GpuArch& arch,
                                                         const WarpAccessSpec& spec);

}  // namespace repro::simgpu
