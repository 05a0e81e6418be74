#pragma once
// Warp divergence / load-imbalance model.
//
// A warp retires only when its slowest lane finishes, so for kernels whose
// per-element work varies across the image (Mandelbrot's escape-iteration
// count), the effective compute cost of a warp is max-over-lanes rather than
// mean-over-lanes. The kernel supplies a normalized *work intensity field*
// w(x, y) (relative work per element at normalized image coordinates); we
// evaluate how the launch configuration maps lanes onto the field and return
// the ratio E[max lane work] / E[mean lane work] >= 1, averaged over a
// deterministic grid of warp placements.
//
// Thread coarsening *reduces* divergence (each lane averages a block of
// elements), while tall-skinny warp footprints on high-gradient fields
// increase it — exactly the coupling that makes Mandelbrot's landscape
// architecture- and configuration-sensitive.

#include <functional>

#include "simgpu/launch.hpp"

namespace repro::simgpu {

/// Relative per-element work at normalized coordinates in [0,1)^2.
using IntensityField = std::function<double(double x, double y)>;

/// E[max lane work] / E[mean lane work] for warp 0's lane footprint,
/// averaged over a 6x6 grid of warp positions. Returns 1.0 when `field` is
/// empty. Deterministic (no RNG) and allocation-free; throws
/// std::invalid_argument for warps of more than 64 lanes.
[[nodiscard]] double warp_divergence_factor(const KernelConfig& config,
                                            const GpuArch& arch,
                                            const GridExtent& extent,
                                            const IntensityField& field);

}  // namespace repro::simgpu
