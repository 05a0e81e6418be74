// Functional equivalence of the device kernels against their scalar
// references, across a sweep of launch configurations — the strongest
// end-to-end check of the NDRange engine — plus kernel-specific facts.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "imagecl/kernels/add.hpp"
#include "imagecl/kernels/harris.hpp"
#include "imagecl/kernels/mandelbrot.hpp"
#include "tests/simgpu/model_reference.hpp"

namespace repro::imagecl {
namespace {

Image<float> random_image(std::size_t width, std::size_t height, std::uint64_t seed) {
  repro::Rng rng(seed);
  Image<float> image(width, height);
  for (auto& v : image.data()) v = static_cast<float>(rng.uniform(0.0, 255.0));
  return image;
}

class KernelEquivalence : public ::testing::TestWithParam<simgpu::KernelConfig> {};

TEST_P(KernelEquivalence, AddMatchesReference) {
  const simgpu::Device device(simgpu::titan_v());
  const std::uint64_t width = 97, height = 23;
  const Image<float> a = random_image(width, height, 1);
  const Image<float> b = random_image(width, height, 2);
  simgpu::TracedBuffer<float> buf_a(0, width * height);
  simgpu::TracedBuffer<float> buf_b(1, width * height);
  simgpu::TracedBuffer<float> buf_out(2, width * height, -1.0f);
  buf_a.data() = a.data();
  buf_b.data() = b.data();
  run_add(device, GetParam(), width, height, buf_a, buf_b, buf_out);
  const std::vector<float> expected = add_reference(a.data(), b.data());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_FLOAT_EQ(buf_out.data()[i], expected[i]) << "i=" << i;
  }
}

TEST_P(KernelEquivalence, HarrisMatchesReference) {
  const simgpu::Device device(simgpu::titan_v());
  const std::uint64_t width = 41, height = 37;
  const Image<float> input = random_image(width, height, 3);
  simgpu::TracedBuffer<float> buf_in(0, width * height);
  simgpu::TracedBuffer<float> buf_out(1, width * height);
  buf_in.data() = input.data();
  run_harris(device, GetParam(), input, buf_in, buf_out);
  const Image<float> expected = harris_reference(input);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_FLOAT_EQ(buf_out.data()[i], expected.data()[i]) << "i=" << i;
  }
}

TEST_P(KernelEquivalence, MandelbrotMatchesReference) {
  const simgpu::Device device(simgpu::titan_v());
  const std::uint64_t width = 64, height = 48;
  simgpu::TracedBuffer<float> buf_out(0, width * height);
  run_mandelbrot(device, GetParam(), width, height, buf_out, nullptr, 64);
  const Image<float> expected = mandelbrot_reference(width, height, 64);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_FLOAT_EQ(buf_out.data()[i], expected.data()[i]) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, KernelEquivalence,
                         ::testing::Values(simgpu::KernelConfig{1, 1, 1, 1, 1, 1},
                                           simgpu::KernelConfig{1, 1, 1, 8, 4, 1},
                                           simgpu::KernelConfig{4, 3, 1, 2, 8, 1},
                                           simgpu::KernelConfig{16, 16, 4, 8, 8, 4},
                                           simgpu::KernelConfig{7, 2, 1, 3, 5, 2}));

TEST(AddKernel, ReferenceRejectsMismatch) {
  EXPECT_THROW((void)add_reference({1.0f}, {1.0f, 2.0f}), std::invalid_argument);
}

TEST(AddKernel, RunRejectsBufferMismatch) {
  const simgpu::Device device(simgpu::titan_v());
  simgpu::TracedBuffer<float> a(0, 64), b(1, 64), out(2, 32);
  EXPECT_THROW(run_add(device, {1, 1, 1, 4, 4, 1}, 8, 8, a, b, out),
               std::invalid_argument);
}

TEST(HarrisKernel, FlatImageHasNoCorners) {
  const Image<float> flat(32, 32, 5.0f);
  const Image<float> response = harris_reference(flat);
  for (float r : response.data()) EXPECT_NEAR(r, 0.0f, 1e-3f);
}

TEST(HarrisKernel, CornerRespondsStrongerThanEdge) {
  // Bright square in the corner of a dark image: the square's corner pixel
  // region must out-respond pure-edge regions.
  Image<float> image(64, 64, 0.0f);
  for (std::size_t y = 16; y < 48; ++y) {
    for (std::size_t x = 16; x < 48; ++x) image.at(x, y) = 100.0f;
  }
  const Image<float> response = harris_reference(image);
  const float corner = response.at(16, 16);
  const float edge = response.at(32, 16);   // horizontal edge midpoint
  const float flat = response.at(32, 32);   // interior
  EXPECT_GT(corner, edge);
  EXPECT_GT(corner, flat);
  EXPECT_LT(edge, 0.0f);  // Harris responds negatively on edges
}

TEST(MandelbrotKernel, KnownPointsEscapeCorrectly) {
  // Center of the viewport at pixel coordinates mapping to c ~ (-0.625, 0):
  // inside the set -> max_iter.
  const std::uint64_t n = 1024;
  const auto inside =
      mandelbrot_iterations(n / 2, n / 2, n, n, 100);
  EXPECT_EQ(inside, 100u);
  // Far right edge c ~ (0.75, 1.25i region) escapes almost immediately.
  const auto outside = mandelbrot_iterations(n - 1, 0, n, n, 100);
  EXPECT_LT(outside, 5u);
}

TEST(MandelbrotKernel, IterationsBoundedByMaxIter) {
  for (std::uint32_t max_iter : {1u, 16u, 77u}) {
    EXPECT_LE(mandelbrot_iterations(100, 100, 512, 512, max_iter), max_iter);
  }
}

TEST(MandelbrotKernel, MeanIterationsIsPlausible) {
  const double mean = mandelbrot_mean_iterations();
  EXPECT_GT(mean, 10.0);
  EXPECT_LT(mean, 200.0);
}

/// Pixels of `actual` that differ bitwise from `expected`.
std::size_t mismatched_pixels(const Image<float>& expected, const Image<float>& actual) {
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (std::memcmp(&expected.data()[i], &actual.data()[i], sizeof(float)) != 0) ++mismatches;
  }
  return mismatches;
}

TEST(MandelbrotKernel, ParallelRenderMatchesSerialReference) {
  // Non-square, so a transposed row/column mapping would show.
  const Image<float> expected = reference::mandelbrot_render(320, 200);
  const Image<float> from_main = mandelbrot_reference(320, 200);
  ASSERT_EQ(from_main.width(), 320u);
  ASSERT_EQ(from_main.height(), 200u);
  EXPECT_EQ(mismatched_pixels(expected, from_main), 0u);

  // From inside a pool worker, parallel_for runs the rows inline.
  const Image<float> from_worker = ThreadPool::global()
                                       .submit([] {
                                         EXPECT_TRUE(ThreadPool::global().on_worker_thread());
                                         return mandelbrot_reference(320, 200);
                                       })
                                       .get();
  ASSERT_EQ(from_worker.size(), expected.size());
  EXPECT_EQ(mismatched_pixels(expected, from_worker), 0u);
}

TEST(MandelbrotKernel, IntensityFieldMatchesSerialRender) {
  // The cached 1024^2 field the divergence model samples, pixel centre by
  // pixel centre, against a serial render normalized the same way.
  constexpr std::size_t kResolution = 1024;
  const Image<float> serial = reference::mandelbrot_render(kResolution, kResolution);
  double sum = 0.0;
  for (float v : serial.data()) sum += v;
  const double mean = sum / static_cast<double>(serial.size());
  const double cached_mean = mandelbrot_mean_iterations();
  EXPECT_EQ(std::memcmp(&mean, &cached_mean, sizeof(double)), 0);

  const auto field = mandelbrot_intensity_field();
  std::size_t mismatches = 0;
  for (std::size_t y = 0; y < kResolution; ++y) {
    for (std::size_t x = 0; x < kResolution; ++x) {
      const double got = field((static_cast<double>(x) + 0.5) / kResolution,
                               (static_cast<double>(y) + 0.5) / kResolution);
      const double want = serial.at(x, y) / mean;
      if (std::memcmp(&got, &want, sizeof(double)) != 0) ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(MandelbrotKernel, IntensityFieldNormalizedAroundOne) {
  const auto field = mandelbrot_intensity_field();
  double sum = 0.0;
  int samples = 0;
  for (double y = 0.05; y < 1.0; y += 0.1) {
    for (double x = 0.05; x < 1.0; x += 0.1) {
      const double v = field(x, y);
      EXPECT_GE(v, 0.0);
      sum += v;
      ++samples;
    }
  }
  EXPECT_NEAR(sum / samples, 1.0, 0.35);
}

TEST(CostSpecs, DescribeTheKernels) {
  const auto add = add_cost_spec(8192, 8192);
  EXPECT_EQ(add.loads.size(), 2u);
  EXPECT_EQ(add.stores.size(), 1u);
  EXPECT_FALSE(add.shared_tiling_available);

  const auto harris = harris_cost_spec(8192, 8192);
  EXPECT_TRUE(harris.shared_tiling_available);
  EXPECT_EQ(harris.stencil_radius, kHarrisHaloRadius);
  EXPECT_EQ(harris.loads.at(0).offsets.size(), 49u);  // 7x7 halo
  EXPECT_GT(harris.flops_per_element, 100.0);

  const auto mandelbrot = mandelbrot_cost_spec(8192, 8192);
  EXPECT_TRUE(mandelbrot.loads.empty());
  EXPECT_TRUE(static_cast<bool>(mandelbrot.intensity));
  EXPECT_GT(mandelbrot.flops_per_element, 8.0);
}

}  // namespace
}  // namespace repro::imagecl
