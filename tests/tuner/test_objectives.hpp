#pragma once
// Shared synthetic objectives for the search-algorithm tests: cheap,
// deterministic landscapes with a known optimum on the paper's space.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "tuner/evaluator.hpp"
#include "tuner/search_space.hpp"
#include "tuner/tuner.hpp"

namespace repro::tuner::testing {

/// Smooth separable bowl with the optimum at (4, 4, 4, 4, 4, 4); minimum 1.
inline Objective bowl_objective(std::size_t* call_count = nullptr) {
  return [call_count](const Configuration& config) {
    if (call_count != nullptr) ++(*call_count);
    double value = 1.0;
    for (int v : config) {
      value += static_cast<double>((v - 4) * (v - 4));
    }
    return Evaluation{value, true};
  };
}

/// Bowl with multiplicative measurement noise (the realistic case).
inline Objective noisy_bowl_objective(repro::Rng& rng, double sigma = 0.05) {
  return [&rng, sigma](const Configuration& config) {
    double value = 1.0;
    for (int v : config) value += static_cast<double>((v - 4) * (v - 4));
    return Evaluation{value * rng.lognormal(0.0, sigma), true};
  };
}

/// Bowl where the constraint-violating region reports failures, exercising
/// the SMBO invalid-configuration path.
inline Objective gated_bowl_objective(const ParamSpace& space) {
  return [&space](const Configuration& config) {
    if (!space.is_executable(config)) return Evaluation{};
    double value = 1.0;
    for (int v : config) value += static_cast<double>((v - 4) * (v - 4));
    return Evaluation{value, true};
  };
}

/// One seeded run of a search on the bowl: every measured configuration in
/// order, the result, and the next draw of the search's RNG (which shows
/// how far the stream advanced).
struct TracedRun {
  std::vector<Configuration> measured;
  TuneResult result;
  repro::Rng::result_type next_draw = 0;
};

inline TracedRun traced_minimize(SearchAlgorithm& algorithm, const ParamSpace& space,
                                 std::size_t budget, std::uint64_t seed) {
  TracedRun run;
  const Objective bowl = bowl_objective();
  Evaluator evaluator(space, [&run, &bowl](const Configuration& config) {
    run.measured.push_back(config);
    return bowl(config);
  }, budget);
  repro::Rng rng(seed);
  run.result = algorithm.minimize(space, evaluator, rng);
  run.next_draw = rng();
  return run;
}

/// Expected value of the bowl for a uniform random executable draw,
/// estimated once for "beats random" assertions.
inline double random_baseline(const ParamSpace& space, std::size_t budget,
                              std::uint64_t seed) {
  repro::Rng rng(seed);
  double best = 1e300;
  const Objective objective = bowl_objective();
  for (std::size_t i = 0; i < budget; ++i) {
    const Evaluation eval = objective(space.sample_executable(rng));
    best = std::min(best, eval.value);
  }
  return best;
}

}  // namespace repro::tuner::testing
