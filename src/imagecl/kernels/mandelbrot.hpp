#pragma once
// The ImageCL "Mandelbrot" benchmark: render escape-iteration counts of the
// Mandelbrot set over an X-by-Y grid (paper Section V-D; 8192x8192,
// classic viewport). Compute-bound with strong per-pixel work variation:
// warp divergence couples the tuning parameters to the *content* of the
// image, which is why its landscape differs qualitatively from Add/Harris.

#include <cstdint>

#include "imagecl/image.hpp"
#include "simgpu/device.hpp"
#include "simgpu/perf_model.hpp"

namespace repro::imagecl {

inline constexpr std::uint32_t kMandelbrotMaxIter = 256;
// Classic full-set viewport.
inline constexpr double kMandelbrotMinX = -2.0;
inline constexpr double kMandelbrotMaxX = 0.75;
inline constexpr double kMandelbrotMinY = -1.25;
inline constexpr double kMandelbrotMaxY = 1.25;

/// Escape iterations for pixel (x, y) of a width-by-height render.
[[nodiscard]] std::uint32_t mandelbrot_iterations(std::uint64_t x, std::uint64_t y,
                                                  std::uint64_t width,
                                                  std::uint64_t height,
                                                  std::uint32_t max_iter = kMandelbrotMaxIter);

/// Reference render; rows are spread over the global thread pool.
[[nodiscard]] Image<float> mandelbrot_reference(std::size_t width, std::size_t height,
                                                std::uint32_t max_iter = kMandelbrotMaxIter);

/// Run the Mandelbrot kernel on the simulated device.
void run_mandelbrot(const simgpu::Device& device, const simgpu::KernelConfig& config,
                    std::uint64_t width, std::uint64_t height,
                    simgpu::TracedBuffer<float>& out_buffer,
                    simgpu::TraceRecorder* trace = nullptr,
                    std::uint32_t max_iter = kMandelbrotMaxIter);

/// Mean escape-iteration count of the viewport (from a cached 1024x1024
/// pre-render) — used to size flops_per_element.
[[nodiscard]] double mandelbrot_mean_iterations();

/// Work-intensity field w(x, y) = iterations at normalized viewport
/// coordinates / mean iterations, nearest-pixel lookup into the cached
/// pre-render. Drives the divergence model.
[[nodiscard]] simgpu::IntensityField mandelbrot_intensity_field();

/// Analytical cost description for a width-by-height render.
[[nodiscard]] simgpu::KernelCostSpec mandelbrot_cost_spec(std::uint64_t width,
                                                          std::uint64_t height);

}  // namespace repro::imagecl
