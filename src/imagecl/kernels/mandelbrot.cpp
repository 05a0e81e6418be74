#include "imagecl/kernels/mandelbrot.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/thread_pool.hpp"

namespace repro::imagecl {
namespace {

constexpr std::size_t kFieldResolution = 1024;

/// Cached render of the viewport used for the intensity field and
/// mean-iteration statistics. 1024^2 keeps enough of the boundary's
/// high-frequency structure that warp-footprint-sized windows see real
/// iteration variance (the divergence model samples it with *nearest*
/// lookup for the same reason). Immutable after construction.
///
/// Init order: the first call renders on the global pool while holding this
/// static's guard, so a pool worker that blocked on the guard meanwhile
/// would hold back the render it waits for. Field lambdas, the only callers
/// that run per sample on workers, cannot exist before the map does:
/// mandelbrot_intensity_field() calls this (through the mean) before it
/// builds one, and suite() builds the Mandelbrot spec before handing out any
/// benchmark. A first call made on a pool worker renders inline.
const Image<float>& field_map() {
  static const Image<float> map = mandelbrot_reference(kFieldResolution, kFieldResolution);
  return map;
}

}  // namespace

std::uint32_t mandelbrot_iterations(std::uint64_t x, std::uint64_t y, std::uint64_t width,
                                    std::uint64_t height, std::uint32_t max_iter) {
  const double cr = kMandelbrotMinX + (kMandelbrotMaxX - kMandelbrotMinX) *
                                          (static_cast<double>(x) + 0.5) /
                                          static_cast<double>(width);
  const double ci = kMandelbrotMinY + (kMandelbrotMaxY - kMandelbrotMinY) *
                                          (static_cast<double>(y) + 0.5) /
                                          static_cast<double>(height);
  double zr = 0.0;
  double zi = 0.0;
  std::uint32_t iter = 0;
  while (iter < max_iter && zr * zr + zi * zi <= 4.0) {
    const double next_zr = zr * zr - zi * zi + cr;
    zi = 2.0 * zr * zi + ci;
    zr = next_zr;
    ++iter;
  }
  return iter;
}

Image<float> mandelbrot_reference(std::size_t width, std::size_t height,
                                  std::uint32_t max_iter) {
  Image<float> out(width, height);
  // Pixels are independent integer counts: rows render in any order.
  parallel_for(0, height, [&](std::size_t y) {
    for (std::size_t x = 0; x < width; ++x) {
      out.at(x, y) = static_cast<float>(
          mandelbrot_iterations(x, y, width, height, max_iter));
    }
  });
  return out;
}

void run_mandelbrot(const simgpu::Device& device, const simgpu::KernelConfig& config,
                    std::uint64_t width, std::uint64_t height,
                    simgpu::TracedBuffer<float>& out_buffer, simgpu::TraceRecorder* trace,
                    std::uint32_t max_iter) {
  const simgpu::GridExtent extent{width, height, 1};
  device.run(extent, config, [&](const simgpu::ThreadCtx& ctx) {
    simgpu::for_each_coarsened_element(
        ctx, config, extent, [&](std::uint64_t x, std::uint64_t y, std::uint64_t) {
          const auto iterations = mandelbrot_iterations(x, y, width, height, max_iter);
          out_buffer.write(ctx, y * width + x, static_cast<float>(iterations));
        });
  }, trace);
}

double mandelbrot_mean_iterations() {
  static const double mean = [] {
    const Image<float>& map = field_map();
    double sum = 0.0;
    for (float v : map.data()) sum += v;
    return sum / static_cast<double>(map.size());
  }();
  return mean;
}

simgpu::IntensityField mandelbrot_intensity_field() {
  const double mean = mandelbrot_mean_iterations();
  return [mean](double nx, double ny) {
    const Image<float>& map = field_map();
    // Nearest-neighbour lookup: bilinear smoothing would erase exactly the
    // pixel-scale variance that causes warp divergence.
    const auto x0 = static_cast<std::size_t>(nx * static_cast<double>(map.width()));
    const auto y0 = static_cast<std::size_t>(ny * static_cast<double>(map.height()));
    return map.at(std::min(x0, map.width() - 1), std::min(y0, map.height() - 1)) / mean;
  };
}

simgpu::KernelCostSpec mandelbrot_cost_spec(std::uint64_t width, std::uint64_t height) {
  simgpu::KernelCostSpec spec;
  spec.name = "mandelbrot";
  spec.extent = {width, height, 1};
  // ~8 flops per iteration of the escape loop, at the viewport's mean
  // iteration count; divergence scales warps toward their max lane.
  spec.flops_per_element = 8.0 * mandelbrot_mean_iterations();
  spec.element_bytes = 4;
  spec.loads = {};  // no global input

  simgpu::WarpAccessSpec store;
  store.element_bytes = 4;
  store.pitch_x = width;
  store.pitch_y = height;
  store.offsets = {{0, 0, 0}};
  spec.stores = {store};

  spec.regs_base = 28;
  spec.regs_per_extra_element = 2.5;
  spec.ilp = 1.5;  // mostly a serial dependency chain per pixel
  spec.intensity = mandelbrot_intensity_field();
  return spec;
}

}  // namespace repro::imagecl
