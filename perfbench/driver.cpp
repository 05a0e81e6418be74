// perfbench driver: the in-process half of the repo benchmark.
//
// run.py measures the end-to-end numbers from outside (the fig2 campaign
// process, and a tunelb -> tuned -> tuned --standby topology); this binary
// supplies what needs the libraries:
//
//   campaign-verify  correctness oracle for a campaign: every cell holds E(S)
//                    outcomes, the figure CSV re-derives byte-for-byte from
//                    the saved raw outcomes, and sampled experiments re-run
//                    serially through run_experiment_detailed match the raw
//                    outcomes bit for bit. With --trace 1 it also replays the
//                    whole campaign in-process under spans (harness, tuner,
//                    simgpu layers).
//   store-seed       pre-imports the warm workload's tenant histories.
//   service-load     the closed-loop client load (4 connections) with the
//                    service gates: remote sessions equal in-process
//                    minimize() replays, export drains equal an in-memory
//                    ResultsStore oracle, primary and standby store digests
//                    agree.
//   layer-probe      per-layer timings of service/store/tuner calls.
//
// Every subcommand prints one JSON object as its last stdout line. Spans are
// recorded only from this file, around calls into the repo's public
// functions, kept in memory, and written out when the subcommand ends.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "harness/context.hpp"
#include "harness/report.hpp"
#include "harness/results_io.hpp"
#include "harness/study.hpp"
#include "imagecl/benchmark_suite.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/session_wal.hpp"
#include "service/wal_ship.hpp"
#include "simgpu/arch.hpp"
#include "store/results_store.hpp"
#include "tuner/ask_tell.hpp"
#include "tuner/evaluator.hpp"
#include "tuner/registry.hpp"

namespace {

using namespace repro;
using Clock = std::chrono::steady_clock;

// Fixed workload shape. The campaign itself runs at fig2's defaults, which
// are StudyConfig's defaults (scale, sizes, experiment floor).
constexpr std::size_t kClients = 4;            ///< load threads = connections = warm tenants
constexpr std::size_t kWarmTenantRows = 1536;  ///< three 512-row warm snapshots per tenant
constexpr std::size_t kWarmSnapshotRows = 512;  ///< the daemon's warm-start snapshot rule
constexpr std::size_t kTellLiveSessions = 4;   ///< live sessions per tell connection
constexpr std::size_t kTellBudget = 24;
constexpr std::size_t kWarmBudget = 25;
constexpr std::size_t kDrainEvery = 16;        ///< warm sessions per export drain
constexpr std::size_t kProbeReps = 200;
constexpr std::size_t kSampledExperiments = 5;  ///< campaign experiments re-run serially

// ---------------------------------------------------------------------------
// Arguments: --key value pairs after the subcommand.
// ---------------------------------------------------------------------------

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) throw std::runtime_error("bad argument " + key);
      values_[key.substr(2)] = argv[i + 1];
    }
  }
  std::string str(const std::string& key, const std::string& fallback = "") const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  std::string need(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) throw std::runtime_error("missing --" + key);
    return it->second;
  }
  std::uint64_t u64(const std::string& key, std::uint64_t fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stoull(it->second);
  }

 private:
  std::map<std::string, std::string> values_;
};

std::vector<std::string> split(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// ---------------------------------------------------------------------------
// Tracing: spans with name, start, end, parent and run id, kept in memory.
// ---------------------------------------------------------------------------

struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  void enable(std::uint64_t run_id) {
    enabled_ = true;
    run_id_ = run_id;
  }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }
  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  void record(SpanRecord span) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
  }

  /// Summed duration (s) of spans named `name`.
  [[nodiscard]] double total(const std::string& name) const {
    double sum = 0.0;
    for (const SpanRecord& span : spans_) {
      if (span.name == name) sum += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    }
    return sum;
  }
  /// Summed self time (s) of spans named `name`: each span's duration minus
  /// the part of its interval covered by its direct children.
  [[nodiscard]] double self_time(const std::string& name) const {
    std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>> children;
    for (const SpanRecord& span : spans_) {
      if (span.parent != 0) children[span.parent].push_back({span.start_ns, span.end_ns});
    }
    double sum = 0.0;
    for (const SpanRecord& span : spans_) {
      if (span.name != name) continue;
      std::int64_t covered = 0;
      auto it = children.find(span.id);
      if (it != children.end()) {
        auto& intervals = it->second;
        std::sort(intervals.begin(), intervals.end());
        std::int64_t cursor = span.start_ns;
        for (const auto& [lo_raw, hi_raw] : intervals) {
          const std::int64_t lo = std::max(lo_raw, cursor);
          const std::int64_t hi = std::min(hi_raw, span.end_ns);
          if (hi > lo) {
            covered += hi - lo;
            cursor = hi;
          }
        }
      }
      sum += static_cast<double>(span.end_ns - span.start_ns - covered) * 1e-9;
    }
    return sum;
  }

  void write(const std::string& path) const {
    if (path.empty()) return;
    std::ofstream out(path);
    for (const SpanRecord& span : spans_) {
      out << "{\"run\":" << run_id_ << ",\"id\":" << span.id << ",\"parent\":"
          << span.parent << ",\"name\":\"" << span.name << "\",\"start_ns\":"
          << span.start_ns << ",\"end_ns\":" << span.end_ns << "}\n";
    }
  }

 private:
  bool enabled_ = false;
  std::uint64_t run_id_ = 0;
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

Tracer g_tracer;
thread_local std::uint64_t t_current_span = 0;

/// RAII span; a no-op unless tracing is enabled. The parent defaults to the
/// innermost open span on this thread.
class Span {
 public:
  explicit Span(const char* name, std::optional<std::uint64_t> parent = std::nullopt) {
    if (!g_tracer.enabled()) return;
    record_.name = name;
    record_.id = g_tracer.next_id();
    record_.parent = parent.value_or(t_current_span);
    saved_ = t_current_span;
    t_current_span = record_.id;
    record_.start_ns = Tracer::now_ns();
  }
  ~Span() {
    if (record_.id == 0) return;
    record_.end_ns = Tracer::now_ns();
    t_current_span = saved_;
    g_tracer.record(std::move(record_));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  [[nodiscard]] std::uint64_t id() const noexcept { return record_.id; }

 private:
  SpanRecord record_;
  std::uint64_t saved_ = 0;
};

/// {"ok": no errors, "errors": the first 20} — the head of every report.
Json gate_report(const std::vector<std::string>& errors) {
  Json out = Json::object();
  out.set("ok", errors.empty());
  Json listed = Json::array();
  for (std::size_t i = 0; i < errors.size() && i < 20; ++i) listed.push_back(errors[i]);
  out.set("errors", std::move(listed));
  return out;
}

// ---------------------------------------------------------------------------
// Latency samples
// ---------------------------------------------------------------------------

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double median_of(std::vector<double> values) { return percentile(std::move(values), 0.5); }

/// Client-observed latencies of one op kind with completion times (s since
/// the measured phase started).
struct OpSamples {
  std::vector<double> us;
  std::vector<double> at_s;

  void append(const OpSamples& other) {
    us.insert(us.end(), other.us.begin(), other.us.end());
    at_s.insert(at_s.end(), other.at_s.begin(), other.at_s.end());
  }
  /// Samples bucketed into the full windows of `window_s` inside `span_s`.
  [[nodiscard]] std::vector<std::vector<double>> windows(double window_s, double span_s) const {
    const auto count = static_cast<std::size_t>(span_s / window_s);
    std::vector<std::vector<double>> out(count);
    for (std::size_t i = 0; i < us.size(); ++i) {
      const auto w = static_cast<std::size_t>(at_s[i] / window_s);
      if (at_s[i] >= 0.0 && w < count) out[w].push_back(us[i]);
    }
    return out;
  }
};


double mean_of(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// ---------------------------------------------------------------------------
// campaign-verify
// ---------------------------------------------------------------------------

std::uint64_t experiment_seed(std::uint64_t master, const std::string& bench,
                              const std::string& arch, const std::string& algo,
                              std::size_t size, std::size_t experiment) {
  // The per-experiment seed rule of harness::run_study.
  return seed_combine(seed_combine(master, seed_from_string(bench + "/" + arch + "/" + algo)),
                      size * 100003ull + experiment);
}

bool files_equal(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary);
  std::ifstream fb(b, std::ios::binary);
  if (!fa || !fb) return false;
  std::stringstream sa, sb;
  sa << fa.rdbuf();
  sb << fb.rdbuf();
  return sa.str() == sb.str();
}

struct ProbeExperiment {
  std::size_t calls = 0;
  std::size_t valid = 0;
  double objective_s = 0.0;
};

/// The SMBO leg of run_experiment_detailed with the context objective wrapped
/// in spans, so search self time = the minimize span minus its objective
/// spans.
ProbeExperiment probe_search(const harness::BenchmarkContext& context,
                             const std::string& algo, std::size_t size,
                             std::uint64_t seed) {
  ProbeExperiment out;
  Rng rng(seed);
  simgpu::FaultInjector injector(context.fault_model(), seed_combine(seed, 0xFA17u));
  const tuner::Objective inner = context.make_objective(rng, injector);
  const tuner::Objective wrapped = [&](const tuner::Configuration& config) {
    const auto start = Clock::now();
    tuner::Evaluation eval;
    {
      Span span("simgpu.objective");
      eval = inner(config);
    }
    out.objective_s += seconds_since(start);
    ++out.calls;
    if (eval.valid) ++out.valid;
    return eval;
  };
  tuner::Evaluator evaluator(context.space(), wrapped, size);
  const auto algorithm = tuner::make_algorithm(algo);
  Span span(("tuner.minimize." + algo).c_str());
  (void)algorithm->minimize(context.space(), evaluator, rng);
  return out;
}

int campaign_verify(const Args& args) {
  const std::string raw_path = args.need("raw");
  const std::string csv_path = args.need("csv");
  const std::string scratch = args.need("scratch");
  const std::uint64_t master = std::stoull(args.need("seed"));
  const std::string spans_out = args.str("spans-out");
  const bool trace = !spans_out.empty();  // the traced run asks for its spans
  const bool corrupt = args.u64("corrupt", 0) != 0;
  if (trace) g_tracer.enable(master);

  harness::StudyConfig config;
  config.master_seed = master;
  config.benchmarks = split(args.need("bench"));
  config.architectures = split(args.need("arch"));
  config.algorithms = split(args.need("algo"));

  std::vector<std::string> errors;
  Json metrics = Json::object();
  const harness::StudyResults raw = harness::load_results_csv(raw_path);

  // Gate 1: shape — every panel, every cell, E(S) finite outcomes.
  std::size_t outcomes = 0;
  for (const std::string& bench : config.benchmarks) {
    for (const std::string& arch : config.architectures) {
      const harness::PanelResults* panel = nullptr;
      try {
        panel = &raw.panel(bench, arch);
      } catch (const std::exception&) {
        errors.push_back("raw outcomes lack panel " + bench + "/" + arch);
        continue;
      }
      if (panel->cells.size() != config.algorithms.size()) {
        errors.push_back("panel " + bench + "/" + arch + " has wrong algorithm count");
        continue;
      }
      for (std::size_t a = 0; a < config.algorithms.size(); ++a) {
        if (panel->cells[a].size() != config.sample_sizes.size()) {
          errors.push_back("panel " + bench + "/" + arch + " has wrong size count");
          continue;
        }
        for (std::size_t s = 0; s < config.sample_sizes.size(); ++s) {
          const auto& cell = panel->cells[a][s];
          const std::size_t want = config.experiments_for(config.sample_sizes[s]);
          if (cell.final_times_us.size() != want || cell.failed_experiments != 0) {
            errors.push_back("cell " + bench + "/" + arch + "/" + config.algorithms[a] +
                             "/" + std::to_string(config.sample_sizes[s]) + " holds " +
                             std::to_string(cell.final_times_us.size()) + " outcomes, want " +
                             std::to_string(want));
          }
          for (double v : cell.final_times_us) {
            if (!std::isfinite(v)) errors.push_back("non-finite outcome in a cell");
          }
          outcomes += cell.final_times_us.size();
        }
      }
    }
  }

  // Gate 2: the figure CSV is exactly the fig2 aggregation of the raw file.
  {
    const std::string expect = scratch + "/fig2_from_raw.csv";
    const harness::FigureOutput fig = harness::make_fig2(raw);
    if (!fig.table.write_csv_file(expect) || !files_equal(expect, csv_path))
      errors.push_back("fig2 CSV differs from the aggregation of its raw outcomes");
  }

  // Gate 3: sampled experiments re-run serially must match bit for bit.
  struct Pick {
    std::size_t panel, algo, size_index, experiment;
  };
  const std::size_t num_panels = config.benchmarks.size() * config.architectures.size();
  Rng pick_rng(master);
  std::vector<Pick> picks;
  for (std::size_t k = 0; k < kSampledExperiments; ++k) {
    Pick pick{};
    pick.algo = k % config.algorithms.size();
    pick.panel = pick_rng.next_below(num_panels);
    pick.size_index = pick_rng.next_below(config.sample_sizes.size());
    pick.experiment =
        pick_rng.next_below(config.experiments_for(config.sample_sizes[pick.size_index]));
    picks.push_back(pick);
  }
  std::sort(picks.begin(), picks.end(),
            [](const Pick& a, const Pick& b) { return a.panel < b.panel; });

  auto panel_names = [&](std::size_t p) {
    return std::pair<std::string, std::string>{
        config.benchmarks[p / config.architectures.size()],
        config.architectures[p % config.architectures.size()]};
  };
  // The mean-cache cap run_study gives each panel's context: every budgeted
  // measurement of the panel plus the dataset, with 2x headroom.
  std::size_t measurements = 0;
  for (std::size_t size : config.sample_sizes) measurements += config.experiments_for(size) * size;
  const std::size_t mean_cache_capacity =
      2 * config.algorithms.size() * measurements + 2 * config.dataset_size_needed();
  auto build_context = [&](std::size_t p, const char* span_name) {
    const auto [bench, arch] = panel_names(p);
    Span span(span_name);
    auto context = std::make_unique<harness::BenchmarkContext>(
        imagecl::benchmark_by_name(bench), simgpu::arch_by_name(arch),
        config.dataset_size_needed(), master);
    context->set_mean_cache_capacity(mean_cache_capacity);
    return context;
  };

  harness::ExperimentOptions options;
  options.final_evaluations = config.final_evaluations;
  std::size_t verified = 0;
  {
    std::unique_ptr<harness::BenchmarkContext> context;
    std::size_t context_panel = num_panels;
    bool corrupted = false;
    for (const Pick& pick : picks) {
      const auto [bench, arch] = panel_names(pick.panel);
      if (context_panel != pick.panel) {
        context = build_context(pick.panel, "harness.oracle_context_build");
        context_panel = pick.panel;
      }
      const std::string& algo = config.algorithms[pick.algo];
      const std::size_t size = config.sample_sizes[pick.size_index];
      const harness::ExperimentOutcome got = harness::run_experiment_detailed(
          *context, algo, size, pick.experiment,
          experiment_seed(master, bench, arch, algo, size, pick.experiment), options);
      const harness::PanelResults& panel = raw.panel(bench, arch);
      if (pick.algo >= panel.cells.size() ||
          pick.size_index >= panel.cells[pick.algo].size() ||
          pick.experiment >= panel.cells[pick.algo][pick.size_index].final_times_us.size())
        continue;  // already reported by the shape gate
      double want = panel.cells[pick.algo][pick.size_index].final_times_us[pick.experiment];
      if (corrupt && !corrupted) {
        want = std::nextafter(want, 0.0);  // gate self-test: one altered outcome
        corrupted = true;
      }
      if (!same_bits(got.final_time_us, want)) {
        errors.push_back("experiment " + bench + "/" + arch + "/" + algo + " S=" +
                         std::to_string(size) + " #" + std::to_string(pick.experiment) +
                         " does not reproduce its campaign outcome");
      }
      ++verified;
    }
  }

  // Traced: full in-process replay of the campaign under spans.
  if (trace) {
    double critical = 0.0;
    double hit_ratio_sum = 0.0;
    double model_ns_sum = 0.0;
    std::map<std::string, std::vector<double>> experiment_s;
    std::map<std::string, ProbeExperiment> search;
    for (std::size_t p = 0; p < num_panels; ++p) {
      const auto [bench, arch] = panel_names(p);
      const auto context = build_context(p, "harness.context_build");
      struct Task {
        std::size_t algo, size_index, experiment;
      };
      std::vector<Task> tasks;
      for (std::size_t a = 0; a < config.algorithms.size(); ++a)
        for (std::size_t s = 0; s < config.sample_sizes.size(); ++s)
          for (std::size_t e = 0; e < config.experiments_for(config.sample_sizes[s]); ++e)
            tasks.push_back({a, s, e});
      std::vector<double> seconds(tasks.size(), 0.0);
      std::vector<double> finals(tasks.size(), 0.0);
      {
        Span replay("harness.replay");
        const std::uint64_t replay_id = replay.id();
        parallel_for(0, tasks.size(), [&](std::size_t t) {
          const Task& task = tasks[t];
          const std::string& algo = config.algorithms[task.algo];
          const std::size_t size = config.sample_sizes[task.size_index];
          const auto start = Clock::now();
          Span span("harness.experiment", replay_id);
          finals[t] = harness::run_experiment_detailed(
                          *context, algo, size, task.experiment,
                          experiment_seed(master, bench, arch, algo, size, task.experiment),
                          options)
                          .final_time_us;
          seconds[t] = seconds_since(start);
        });
      }
      const harness::PanelResults& panel = raw.panel(bench, arch);
      for (std::size_t t = 0; t < tasks.size(); ++t) {
        const Task& task = tasks[t];
        experiment_s[config.algorithms[task.algo]].push_back(seconds[t]);
        critical = std::max(critical, seconds[t]);
        const auto& cell = panel.cells[task.algo][task.size_index].final_times_us;
        if (task.experiment >= cell.size() || !same_bits(finals[t], cell[task.experiment]))
          errors.push_back("in-process replay of " + bench + "/" + arch +
                           " differs from the campaign's raw outcomes");
      }
      const simgpu::MeanCache& cache = context->mean_cache();
      const double lookups = static_cast<double>(cache.lookups());
      hit_ratio_sum += lookups > 0 ? static_cast<double>(cache.hits()) / lookups : 0.0;

      // Public perf model over the panel's configurations.
      {
        Rng rng(seed_combine(master, 0x90DE1u));
        std::vector<simgpu::KernelConfig> configs;
        for (int i = 0; i < 4096; ++i)
          configs.push_back(harness::to_kernel_config(context->space().sample(rng)));
        const auto& passes = imagecl::benchmark_by_name(bench)->passes();
        const auto start = Clock::now();
        {
          Span span("simgpu.model");
          for (const auto& kc : configs)
            for (const auto& pass : passes) (void)pass.evaluate(context->arch(), kc);
        }
        model_ns_sum += seconds_since(start) * 1e9 / static_cast<double>(configs.size());
      }

      // Search self time (SMBO algorithms only), one experiment per size.
      if (p == 0) {
        for (const std::string& algo : config.algorithms) {
          if (algo == "rs" || algo == "rf") continue;
          for (std::size_t s = 0; s < config.sample_sizes.size(); s += 2) {
            const std::size_t size = config.sample_sizes[s];
            const ProbeExperiment probe = probe_search(
                *context, algo, size, experiment_seed(master, bench, arch, algo, size, 0));
            ProbeExperiment& sum = search[algo];
            sum.objective_s += probe.objective_s;
            sum.calls += probe.calls;
            sum.valid += probe.valid;
          }
        }
      }
    }
    metrics.set("harness.context_build_s", g_tracer.total("harness.context_build"));
    for (const char* algo : {"rs", "rf", "ga", "bogp", "botpe"})
      metrics.set(std::string("harness.experiment_s.") + algo, mean_of(experiment_s[algo]));
    metrics.set("harness.critical_task_s", critical);
    std::size_t calls_total = 0;
    double objective_total = 0.0;
    for (const char* algo : {"ga", "bogp", "botpe"}) {
      const auto it = search.find(algo);
      const ProbeExperiment probe = it == search.end() ? ProbeExperiment{} : it->second;
      metrics.set(std::string("tuner.search_self_s.") + algo,
                  g_tracer.self_time(std::string("tuner.minimize.") + algo));
      metrics.set(std::string("tuner.objective_calls.") + algo,
                  static_cast<std::uint64_t>(probe.calls));
      metrics.set(std::string("tuner.valid_ratio.") + algo,
                  probe.calls > 0 ? static_cast<double>(probe.valid) /
                                        static_cast<double>(probe.calls)
                                  : 0.0);
      calls_total += probe.calls;
      objective_total += probe.objective_s;
    }
    metrics.set("simgpu.measure_ns",
                calls_total > 0 ? objective_total * 1e9 / static_cast<double>(calls_total)
                                : 0.0);
    metrics.set("simgpu.model_ns_per_config", model_ns_sum / static_cast<double>(num_panels));
    metrics.set("simgpu.mean_cache_hit_ratio", hit_ratio_sum / static_cast<double>(num_panels));
  }
  g_tracer.write(spans_out);

  Json out = gate_report(errors);
  out.set("outcomes", static_cast<std::uint64_t>(outcomes));
  out.set("verified", static_cast<std::uint64_t>(verified));
  out.set("metrics", std::move(metrics));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Service workloads: space, synthetic objective, tenants
// ---------------------------------------------------------------------------

/// 524288-configuration space: large enough that a tenant holds several
/// 512-row warm snapshots of distinct configurations and that store dedup
/// stays rare, so nearly every acknowledged tell pays the store fsync.
service::OpenParams base_params(const std::string& algorithm, std::size_t budget,
                                std::uint64_t seed) {
  service::OpenParams params;
  params.algorithm = algorithm;
  params.budget = budget;
  params.seed = seed;
  params.custom_space = true;
  params.params = {{"a", 1, 32}, {"b", 1, 32}, {"c", 0, 31}, {"d", 0, 15}};
  return params;
}

/// Cheap deterministic objective in [1, 2): a hash of the workload seed and
/// the configuration.
tuner::Evaluation synth_eval(std::uint64_t workload_seed, const tuner::ParamSpace& space,
                             const tuner::Configuration& config) {
  std::uint64_t state = seed_combine(workload_seed, space.encode(config) + 1);
  const std::uint64_t h = splitmix64(state);
  return tuner::Evaluation{1.0 + static_cast<double>(h >> 11) * 0x1.0p-53, true,
                           tuner::EvalStatus::kOk};
}

store::StoreKey tenant_key(const service::OpenParams& params) {
  return store::StoreKey{params.benchmark, params.arch, service::space_fingerprint_of(params)};
}

service::OpenParams tenant_params(const std::string& algorithm, std::size_t budget,
                                  std::uint64_t seed, const std::string& arch) {
  service::OpenParams params = base_params(algorithm, budget, seed);
  params.benchmark = "perfbench";
  params.arch = arch;
  return params;
}

/// Tenant t's pre-imported history: `rows` distinct configurations.
store::TenantSnapshot seed_tenant(std::uint64_t workload_seed, std::size_t t,
                                  std::size_t rows) {
  const service::OpenParams params =
      tenant_params("botpe", 25, 0, "warm" + std::to_string(t));
  const tuner::ParamSpace space = params.make_space();
  store::TenantSnapshot snapshot;
  snapshot.key = tenant_key(params);
  Rng rng(seed_combine(workload_seed, 0x7E4A47u + t));
  std::vector<char> seen(space.size(), 0);
  while (snapshot.rows.size() < rows) {
    tuner::Configuration config = space.sample(rng);
    const std::uint64_t code = space.encode(config);
    if (seen[code]) continue;
    seen[code] = 1;
    const tuner::Evaluation eval = synth_eval(workload_seed, space, config);
    snapshot.rows.push_back({std::move(config), eval.value, eval.valid});
  }
  return snapshot;
}

service::ClientConfig client_config(std::uint16_t port) {
  service::ClientConfig config;
  config.port = port;
  config.name = "perfbench/1";
  config.max_retries = 8;
  return config;
}

int store_seed(const Args& args) {
  const std::uint64_t seed = std::stoull(args.need("seed"));
  const auto port = static_cast<std::uint16_t>(std::stoul(args.need("port")));
  service::Client client(client_config(port));
  client.connect();
  std::size_t imported = 0;
  for (std::size_t t = 0; t < kClients; ++t)
    imported += client.store_import({seed_tenant(seed, t, kWarmTenantRows)});
  Json out = Json::object();
  out.set("ok", imported == kClients * kWarmTenantRows);
  out.set("imported", static_cast<std::uint64_t>(imported));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

bool same_result(const tuner::TuneResult& a, const tuner::TuneResult& b) {
  return a.found_valid == b.found_valid && a.best_config == b.best_config &&
         same_bits(a.best_value, b.best_value) && a.evaluations_used == b.evaluations_used;
}

bool same_tenants(const std::vector<store::TenantSnapshot>& a,
                  const std::vector<store::TenantSnapshot>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].key.flat() != b[i].key.flat() || a[i].rows.size() != b[i].rows.size())
      return false;
    for (std::size_t r = 0; r < a[i].rows.size(); ++r) {
      const store::StoreRecord& x = a[i].rows[r];
      const store::StoreRecord& y = b[i].rows[r];
      if (x.config != y.config || x.valid != y.valid || !same_bits(x.value, y.value))
        return false;
    }
  }
  return true;
}

std::vector<store::TenantSnapshot> sorted(std::vector<store::TenantSnapshot> tenants) {
  std::sort(tenants.begin(), tenants.end(),
            [](const store::TenantSnapshot& a, const store::TenantSnapshot& b) {
              return a.key.flat() < b.key.flat();
            });
  return tenants;
}

struct WorkerStats {
  OpSamples ask, tell, open;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t acked_tells = 0;
  std::size_t sessions_verified = 0;
  std::size_t export_rows = 0;
  std::vector<double> export_rows_per_s;  ///< one entry per full drain
  std::size_t retries = 0;
  std::vector<std::string> errors;
};

/// p50/p90 as the median over fixed windows of the per-window percentile
/// (a stall in one window moves one sample, not the whole run); p99 over
/// every sample, where a tail needs them all.
Json latency_json(const std::vector<WorkerStats>& chunks, OpSamples WorkerStats::*op,
                  double window_s, double chunk_s) {
  std::vector<double> p50, p90, all;
  for (const WorkerStats& chunk : chunks) {
    const OpSamples& samples = chunk.*op;
    all.insert(all.end(), samples.us.begin(), samples.us.end());
    for (const std::vector<double>& window : samples.windows(window_s, chunk_s)) {
      if (window.size() < 10) continue;
      p50.push_back(percentile(window, 0.50));
      p90.push_back(percentile(window, 0.90));
    }
  }
  Json out = Json::object();
  out.set("n", static_cast<std::uint64_t>(all.size()));
  out.set("windows", static_cast<std::uint64_t>(p50.size()));
  out.set("p50", p50.empty() ? percentile(all, 0.50) : median_of(p50));
  out.set("p90", p90.empty() ? percentile(all, 0.90) : median_of(p90));
  out.set("p99", percentile(all, 0.99));
  return out;
}

template <typename F>
double timed_us(std::vector<double>& into, F&& body) {
  const auto start = Clock::now();
  body();
  const double us = seconds_since(start) * 1e6;
  into.push_back(us);
  return us;
}

/// Start of the measured load phase (completion times are relative to it).
Clock::time_point g_phase_start;

template <typename F>
void timed_op(OpSamples& into, F&& body) {
  const auto start = Clock::now();
  body();
  const auto end = Clock::now();
  into.us.push_back(std::chrono::duration<double, std::micro>(end - start).count());
  into.at_s.push_back(std::chrono::duration<double>(end - g_phase_start).count());
}

/// One full cursor-paged drain through `client`; records its rows/s.
std::vector<store::TenantSnapshot> drain(service::Client& client, WorkerStats& stats) {
  const auto start = Clock::now();
  std::vector<store::TenantSnapshot> drained = client.store_export();
  const double seconds = seconds_since(start);
  std::size_t rows = 0;
  for (const auto& tenant : drained) rows += tenant.rows.size();
  stats.export_rows += rows;
  if (seconds > 0.0) stats.export_rows_per_s.push_back(static_cast<double>(rows) / seconds);
  return drained;
}

/// One remote session of a tell worker.
struct LiveSession {
  std::string id;
  service::OpenParams params;
  tuner::ParamSpace space;
  bool done = false;  ///< finished, or abandoned after a failed op
};

/// service_tell: each connection interleaves `live` tokened rs sessions.
void tell_worker(std::size_t worker, std::size_t first_session, std::uint16_t port,
                 std::uint64_t seed, Clock::time_point deadline, bool corrupt,
                 WorkerStats& stats) {
  service::Client client(client_config(port));
  client.connect();
  std::size_t opened = first_session;
  std::vector<LiveSession> sessions(kTellLiveSessions);
  auto open_one = [&](LiveSession& s) {
    const std::uint64_t session_seed = seed_combine(seed, worker * 1000003ull + opened);
    s = LiveSession{};
    s.params = tenant_params("rs", kTellBudget, session_seed, "tell" + std::to_string(worker));
    s.space = s.params.make_space();
    const std::string token =
        "pb-" + std::to_string(seed) + "-" + std::to_string(worker) + "-" + std::to_string(opened);
    ++opened;
    ++stats.attempted;
    try {
      timed_op(stats.open, [&] { s.id = client.open(s.params, token); });
    } catch (const std::exception& error) {
      ++stats.failed;
      s.done = true;
      stats.errors.push_back(std::string("open: ") + error.what());
    }
  };
  for (LiveSession& s : sessions) open_one(s);
  bool corrupted = !corrupt;
  while (Clock::now() < deadline) {
    bool any = false;
    for (LiveSession& s : sessions) {
      if (s.done) continue;
      any = true;
      try {
        std::optional<tuner::Configuration> config;
        ++stats.attempted;
        timed_op(stats.ask, [&] { config = client.ask(s.id); });
        if (!config) {
          ++stats.attempted;
          const service::Client::RemoteResult remote = client.result(s.id);
          // Gate: the remote session equals an in-process minimize() replay.
          Rng rng(s.params.seed);
          tuner::Evaluator evaluator(
              s.space,
              [&](const tuner::Configuration& c) { return synth_eval(seed, s.space, c); },
              s.params.budget);
          const tuner::TuneResult direct =
              tuner::make_algorithm(s.params.algorithm)->minimize(s.space, evaluator, rng);
          if (!same_result(remote.result, direct))
            stats.errors.push_back("session " + s.id + " differs from in-process minimize()");
          ++stats.sessions_verified;
          ++stats.attempted;
          client.close_session(s.id);
          open_one(s);
          continue;
        }
        tuner::Evaluation eval = synth_eval(seed, s.space, *config);
        if (!corrupted) {
          eval.value *= 0.5;  // gate self-test: one altered told value
          corrupted = true;
        }
        ++stats.attempted;
        timed_op(stats.tell, [&] { (void)client.tell(s.id, eval); });
        ++stats.acked_tells;
      } catch (const std::exception& error) {
        ++stats.failed;
        s.done = true;
        stats.errors.push_back(std::string("op: ") + error.what());
      }
    }
    if (!any) break;
  }
  for (LiveSession& s : sessions) {
    if (s.done || s.id.empty()) continue;
    try {
      client.close_session(s.id);
    } catch (const std::exception&) {
    }
  }
  stats.retries = client.retries();
}

/// service_warm: this worker owns tenant `worker`; warm botpe sessions with
/// full export drains in between. `oracle` receives the same imports and
/// every acknowledged tell.
void warm_worker(std::size_t worker, std::size_t first_session, std::uint16_t port,
                 std::uint64_t seed, Clock::time_point deadline, store::ResultsStore& oracle,
                 bool corrupt, WorkerStats& stats) {
  service::Client client(client_config(port));
  client.connect();
  const std::string arch = "warm" + std::to_string(worker);
  std::size_t opened = first_session;
  while (Clock::now() < deadline) {
    service::OpenParams params = tenant_params(
        "botpe", kWarmBudget, seed_combine(seed, worker * 1000003ull + opened), arch);
    params.warm_start = true;
    const tuner::ParamSpace space = params.make_space();
    const store::StoreKey key = tenant_key(params);
    // The daemon's snapshot rule applied to the oracle.
    const std::vector<store::StoreRecord> rows = oracle.query(key, kWarmSnapshotRows);
    tuner::PriorHistory prior;
    for (const store::StoreRecord& row : rows)
      prior.push_back(tuner::PriorObservation{row.config, row.value, row.valid});
    const tuner::PriorHandle handle = std::make_shared<const tuner::PriorHistory>(prior);
    const std::string token =
        "pbw-" + std::to_string(seed) + "-" + std::to_string(worker) + "-" + std::to_string(opened);
    ++opened;
    std::string id;
    try {
      ++stats.attempted;
      timed_op(stats.open, [&] { id = client.open(params, token); });
      while (true) {
        std::optional<tuner::Configuration> config;
        ++stats.attempted;
        timed_op(stats.ask, [&] { config = client.ask(id); });
        if (!config) break;
        const tuner::Evaluation eval = synth_eval(seed, space, *config);
        ++stats.attempted;
        timed_op(stats.tell, [&] { (void)client.tell(id, eval); });
        ++stats.acked_tells;
        (void)oracle.append(key, *config, eval.value, eval.valid);
      }
      ++stats.attempted;
      const service::Client::RemoteResult remote = client.result(id);
      Rng rng(params.seed);
      tuner::Evaluator evaluator(
          space, [&](const tuner::Configuration& c) { return synth_eval(seed, space, c); },
          params.budget);
      const tuner::TuneResult direct =
          tuner::make_algorithm("botpe", handle)->minimize(space, evaluator, rng);
      if (!same_result(remote.result, direct))
        stats.errors.push_back("warm session " + id + " differs from the oracle replay");
      ++stats.sessions_verified;
      ++stats.attempted;
      client.close_session(id);
    } catch (const std::exception& error) {
      ++stats.failed;
      stats.errors.push_back(std::string("warm op: ") + error.what());
      break;
    }
    // The self-test drains after the first session, so the short run has a
    // drain to corrupt.
    if (opened % kDrainEvery == 0 || corrupt) {
      // Full cursor-paged drain; this worker's own tenant is quiescent, so
      // its rows must equal the oracle's exactly.
      ++stats.attempted;
      try {
        bool found = false;
        for (auto& tenant : drain(client, stats)) {
          if (tenant.key.flat() != key.flat()) continue;
          found = true;
          if (corrupt && !tenant.rows.empty()) {
            tenant.rows.pop_back();  // gate self-test: one dropped row
            corrupt = false;
          }
          if (!same_tenants({tenant}, oracle.export_tenants("perfbench", arch)))
            stats.errors.push_back("export drain of tenant " + arch + " differs from the oracle");
        }
        if (!found) stats.errors.push_back("export drain lacks tenant " + arch);
      } catch (const std::exception& error) {
        ++stats.failed;
        stats.errors.push_back(std::string("export: ") + error.what());
      }
    }
  }
  stats.retries = client.retries();
}

/// The daemon's store digest; a reply without one is a gate error, not a match.
std::uint64_t digest_of(std::uint16_t port) {
  service::Client client(client_config(port));
  client.connect();
  const Json stats = client.store_stats();
  const Json* digest = stats.find("digest");
  if (digest == nullptr || !digest->is_number())
    throw std::runtime_error("store_stats on port " + std::to_string(port) + " has no digest");
  return digest->as_uint64();
}

int service_load(const Args& args) {
  const std::string workload = args.need("workload");
  const bool warm = workload == "warm";
  const auto router = static_cast<std::uint16_t>(std::stoul(args.need("port")));
  const auto primary = static_cast<std::uint16_t>(args.u64("primary", 0));
  const auto standby = static_cast<std::uint16_t>(args.u64("standby", 0));
  const std::uint64_t seed = std::stoull(args.need("seed"));
  const double seconds = std::stod(args.need("seconds"));
  const std::string corrupt = args.str("corrupt");

  // Oracle store: the same imports the setup pushed through store-seed.
  store::StoreOptions oracle_options;
  oracle_options.capacity = 0;
  store::ResultsStore oracle(oracle_options);
  oracle.load();
  if (warm) {
    for (std::size_t t = 0; t < kClients; ++t)
      oracle.import_tenants({seed_tenant(seed, t, kWarmTenantRows)});
  }

  // The load runs in `rounds` chunks; with more than one, each chunk waits
  // for a line on stdin, so the caller can interleave other measurements
  // (the campaign) between chunks while this process keeps the oracle.
  const std::size_t rounds = std::max<std::uint64_t>(1, args.u64("rounds", 1));
  const double chunk_s = seconds / static_cast<double>(rounds);
  std::vector<WorkerStats> stats;
  std::vector<WorkerStats> chunks;  ///< merged per round, for windowing
  double elapsed = 0.0;
  for (std::size_t round = 0; round < rounds; ++round) {
    if (rounds > 1) {
      std::string go;
      if (!std::getline(std::cin, go)) throw std::runtime_error("stdin closed before round");
    }
    std::vector<WorkerStats> round_stats(kClients);
    std::vector<std::thread> threads;  // NOLINT(reprolint-raw-thread)
    g_phase_start = Clock::now();
    const auto deadline =
        g_phase_start + std::chrono::microseconds(static_cast<std::int64_t>(chunk_s * 1e6));
    for (std::size_t w = 0; w < kClients; ++w) {
      threads.emplace_back([&, w] {
        WorkerStats& mine = round_stats[w];
        const std::size_t first_session = round * 1000000;
        try {
          if (warm) {
            warm_worker(w, first_session, router, seed, deadline, oracle,
                        corrupt == "drain" && w == 0 && round == 0, mine);
          } else {
            tell_worker(w, first_session, router, seed, deadline,
                        corrupt == "tell" && w == 0 && round == 0, mine);
          }
        } catch (const std::exception& error) {
          ++mine.attempted;
          ++mine.failed;
          mine.errors.push_back(std::string("worker: ") + error.what());
        }
      });
    }
    for (auto& thread : threads) thread.join();
    elapsed += seconds_since(g_phase_start);
    WorkerStats chunk;
    for (const WorkerStats& s : round_stats) {
      chunk.ask.append(s.ask);
      chunk.tell.append(s.tell);
      chunk.open.append(s.open);
    }
    chunks.push_back(std::move(chunk));
    stats.insert(stats.end(), round_stats.begin(), round_stats.end());
    if (rounds > 1) {
      std::printf("{\"round\":%zu}\n", round);
      std::fflush(stdout);
    }
  }

  WorkerStats total;
  for (WorkerStats& s : stats) {
    total.attempted += s.attempted;
    total.failed += s.failed;
    total.acked_tells += s.acked_tells;
    total.sessions_verified += s.sessions_verified;
    total.export_rows += s.export_rows;
    total.export_rows_per_s.insert(total.export_rows_per_s.end(), s.export_rows_per_s.begin(),
                                   s.export_rows_per_s.end());
    total.retries += s.retries;
    total.errors.insert(total.errors.end(), s.errors.begin(), s.errors.end());
  }

  // Quiescent gates, on the run's own topology (given by its primary and
  // standby ports): a full drain equals the oracle (warm), and the standby's
  // store digest equals the primary's (both workloads). Two more drains of
  // the now-static store add export-rate samples.
  if (primary != 0 && standby != 0) {
    try {
      service::Client client(client_config(router));
      client.connect();
      total.attempted += 3;
      std::vector<store::TenantSnapshot> drained = drain(client, total);
      for (int i = 0; i < 2; ++i) (void)drain(client, total);
      if (warm) {
        if (corrupt == "export" && !drained.empty() && !drained.back().rows.empty())
          drained.back().rows.pop_back();  // gate self-test: one dropped row
        if (!same_tenants(sorted(drained), oracle.export_tenants()))
          total.errors.push_back("final export drain differs from the oracle's export_tenants");
      }
      std::uint64_t standby_digest = digest_of(standby);
      if (corrupt == "digest") standby_digest ^= 1;  // gate self-test: one flipped bit
      if (digest_of(primary) != standby_digest)
        total.errors.push_back("primary and standby store digests differ after drain");
    } catch (const std::exception& error) {
      ++total.failed;
      total.errors.push_back(std::string("drain: ") + error.what());
    }
  }
  if (total.sessions_verified == 0) total.errors.push_back("no session completed");

  Json out = gate_report(total.errors);
  out.set("attempted", static_cast<std::uint64_t>(total.attempted));
  out.set("failed", static_cast<std::uint64_t>(total.failed));
  // Throughput and latency percentiles as medians over 1 s windows.
  const double window_s = 1.0;
  std::vector<double> rates;
  for (const WorkerStats& chunk : chunks)
    for (const auto& window : chunk.tell.windows(window_s, chunk_s))
      rates.push_back(static_cast<double>(window.size()) / window_s);
  out.set("elapsed_s", elapsed);
  out.set("acked_tells", static_cast<std::uint64_t>(total.acked_tells));
  out.set("evals_per_s", rates.empty() ? static_cast<double>(total.acked_tells) / elapsed
                                       : median_of(rates));
  out.set("sessions_verified", static_cast<std::uint64_t>(total.sessions_verified));
  out.set("client_retries", static_cast<std::uint64_t>(total.retries));
  out.set("export_rows", static_cast<std::uint64_t>(total.export_rows));
  out.set("export_rows_per_s", median_of(total.export_rows_per_s));
  out.set("ask", latency_json(chunks, &WorkerStats::ask, window_s, chunk_s));
  out.set("tell", latency_json(chunks, &WorkerStats::tell, window_s, chunk_s));
  out.set("open", latency_json(chunks, &WorkerStats::open, window_s, chunk_s));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// layer-probe
// ---------------------------------------------------------------------------

int layer_probe(const Args& args) {
  const std::string dir = args.need("dir");
  const std::uint64_t seed = std::stoull(args.need("seed"));
  const auto ship_port = static_cast<std::uint16_t>(std::stoul(args.need("ship-port")));
  const std::size_t store_rows = std::stoull(args.need("store-rows"));
  const std::size_t store_tenants =
      std::max<std::size_t>(1, std::stoull(args.need("store-tenants")));
  Json metrics = Json::object();
  std::vector<std::string> errors;

  const service::OpenParams params = tenant_params("rs", 100000, seed, "probe");
  const tuner::ParamSpace space = params.make_space();
  Rng rng(seed_combine(seed, 0xC0DEC));

  // Frame codec: the workload's frame mix (open, ask reply, tell).
  {
    std::vector<double> us;
    for (std::size_t i = 0; i < kProbeReps * 10; ++i) {
      const tuner::Configuration config = space.sample(rng);
      timed_us(us, [&] {
        Json open = service::encode_open(params);
        Json reply = service::make_ok();
        reply.set("config", service::encode_config(config));
        Json tell = Json::object();
        tell.set("op", "tell");
        tell.set("session", "0:s1");
        service::encode_evaluation_into(tell, synth_eval(seed, space, config));
        tell.set("seq", static_cast<std::uint64_t>(i + 1));
        const Json open_back = Json::parse(open.dump());
        const Json reply_back = Json::parse(reply.dump());
        const Json tell_back = Json::parse(tell.dump());
        (void)service::decode_open(open_back);
        (void)service::decode_config(service::require(reply_back, "config"));
        (void)service::decode_evaluation(tell_back);
      });
    }
    metrics.set("service.codec_us", percentile(us, 0.5) / 3.0);
  }

  // Session WAL: fsync'd append_tell on the state-dir filesystem.
  {
    std::vector<double> append_us;
    const std::unique_ptr<service::SessionWal> wal =
        service::SessionWal::create(service::wal_path(dir, "probe-1"), "probe-1", "tok", params);
    if (!wal) {
      errors.push_back("SessionWal::create failed");
    } else {
      for (std::size_t i = 0; i < kProbeReps; ++i) {
        const tuner::Configuration config = space.sample(rng);
        timed_us(append_us, [&] {
          if (!wal->append_tell(i + 1, config, synth_eval(seed, space, config)))
            errors.push_back("append_tell failed");
        });
      }
    }
    metrics.set("service.wal_append_us", percentile(append_us, 0.5));
  }

  // Persistent store append (fsync per new row).
  {
    store::StoreOptions options;
    options.dir = dir + "/probe-store";
    store::ResultsStore persistent(options);
    persistent.load();
    std::vector<double> us;
    const store::StoreKey key = tenant_key(params);
    std::vector<char> seen(space.size(), 0);
    while (us.size() < kProbeReps) {
      tuner::Configuration config = space.sample(rng);
      if (seen[space.encode(config)]++) continue;
      const tuner::Evaluation eval = synth_eval(seed, space, config);
      timed_us(us, [&] { (void)persistent.append(key, config, eval.value, eval.valid); });
    }
    metrics.set("store.append_us", percentile(us, 0.5));
  }

  // Snapshot query and export paging at the workload's store size.
  {
    store::StoreOptions options;
    options.capacity = 0;
    store::ResultsStore memory(options);
    memory.load();
    const std::size_t per_tenant = std::max<std::size_t>(1, store_rows / store_tenants);
    for (std::size_t t = 0; t < store_tenants; ++t)
      memory.import_tenants({seed_tenant(seed, t, std::min<std::size_t>(per_tenant, 30000))});
    const store::StoreKey key = tenant_key(tenant_params("botpe", 25, 0, "warm0"));
    std::vector<double> query_us, page_us;
    for (std::size_t i = 0; i < kProbeReps; ++i)
      timed_us(query_us, [&] { (void)memory.query(key, kWarmSnapshotRows); });
    for (std::size_t i = 0; i < 5; ++i) {
      std::string tenant;
      std::size_t row = 0;
      while (true) {
        store::ResultsStore::ExportPage page;
        timed_us(page_us, [&] { page = memory.export_page("", "", 2048, tenant, row); });
        if (!page.more) break;
        tenant = page.next_tenant_flat;
        row = page.next_row;
      }
    }
    metrics.set("store.query_us", percentile(query_us, 0.5));
    metrics.set("store.export_page_us", percentile(page_us, 0.5));
  }

  // In-process ask/tell handoff on service_tell's space, cold and warm.
  {
    std::vector<double> us;
    tuner::AskTellSession session(space, tuner::make_algorithm("rs"), kProbeReps * 5, seed);
    while (true) {
      const auto start = Clock::now();
      const std::optional<tuner::Configuration> config = session.ask();
      if (!config) break;
      session.tell(synth_eval(seed, space, *config));
      us.push_back(seconds_since(start) * 1e6);
    }
    metrics.set("tuner.ask_tell_handoff_us", percentile(us, 0.5));

    const store::TenantSnapshot prior_rows = seed_tenant(seed, 0, kWarmSnapshotRows);
    tuner::PriorHistory prior;
    for (const auto& row : prior_rows.rows)
      prior.push_back(tuner::PriorObservation{row.config, row.value, row.valid});
    const tuner::PriorHandle handle = std::make_shared<const tuner::PriorHistory>(prior);
    std::vector<double> warm_us;
    for (std::size_t s = 0; s < 4; ++s) {
      tuner::AskTellSession warm(space, tuner::make_algorithm("botpe", handle), 25,
                                 seed_combine(seed, s));
      while (true) {
        const auto start = Clock::now();
        const std::optional<tuner::Configuration> config = warm.ask();
        if (!config) break;
        warm.tell(synth_eval(seed, space, *config));
        warm_us.push_back(seconds_since(start) * 1e6);
      }
    }
    metrics.set("tuner.warm_ask_us", percentile(warm_us, 0.5));
  }

  // Replication round trip: ship a real session's records to a standby.
  {
    service::ShipConfig config;
    config.port = ship_port;
    config.state_dir = dir + "/ship-src";
    std::filesystem::create_directories(config.state_dir);
    service::WalShipper shipper(config);
    std::vector<double> us;
    if (!shipper.connect_now()) {
      errors.push_back("ship link to the probe standby did not connect");
    } else {
      service::OpenParams ship_params = base_params("rs", kProbeReps, seed);
      const tuner::ParamSpace ship_space = ship_params.make_space();
      tuner::AskTellSession session(ship_space, tuner::make_algorithm("rs"), kProbeReps, seed);
      if (!shipper.ship_open("probe-ship", "tok", ship_params))
        errors.push_back("ship_open failed");
      std::uint64_t seq = 0;
      while (true) {
        const std::optional<tuner::Configuration> proposal = session.ask();
        if (!proposal) break;
        const tuner::Evaluation eval = synth_eval(seed, ship_space, *proposal);
        session.tell(eval);
        timed_us(us, [&] {
          if (!shipper.ship_tell("probe-ship", ++seq, *proposal, eval))
            errors.push_back("ship_tell failed");
        });
      }
      (void)shipper.ship_close("probe-ship");
    }
    metrics.set("service.ship_rtt_us", percentile(us, 0.5));
  }

  Json out = gate_report(errors);
  out.set("metrics", std::move(metrics));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_driver campaign-verify|store-seed|service-load|layer-probe "
                 "[--key value ...]\n");
    return 2;
  }
  const std::string command = argv[1];
  try {
    const Args args(argc, argv);
    if (command == "campaign-verify") return campaign_verify(args);
    if (command == "store-seed") return store_seed(args);
    if (command == "service-load") return service_load(args);
    if (command == "layer-probe") return layer_probe(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_driver %s: %s\n", command.c_str(), error.what());
    return 1;
  }
  std::fprintf(stderr, "perfbench_driver: unknown command %s\n", command.c_str());
  return 2;
}
