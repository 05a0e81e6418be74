// Microbenchmarks for the session WAL: what does durability cost per tell?
// Every acknowledged tell pays one JSON-line append plus (by default) one
// fsync before the ack frame leaves the daemon, so the fsync'd append rate
// bounds the throughput of a durable tuning service. The replay benchmark
// prices recovery itself: journal k tells, then load + re-drive a fresh
// session through them — the daemon's restart latency per session.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "common/rng.hpp"
#include "service/session_manager.hpp"
#include "service/session_wal.hpp"
#include "tuner/registry.hpp"

namespace {

using namespace repro;

service::OpenParams small_open(std::size_t budget) {
  service::OpenParams params;
  params.algorithm = "rs";
  params.budget = budget;
  params.seed = 11;
  params.custom_space = true;
  params.params = {{"a", 1, 8}, {"b", 1, 8}, {"c", 0, 5}};
  return params;
}

tuner::Evaluation synth_eval(const tuner::ParamSpace& space,
                             const tuner::Configuration& config) {
  std::uint64_t state = seed_combine(99, space.encode(config) + 1);
  const std::uint64_t h = splitmix64(state);
  return tuner::Evaluation{1.0 + static_cast<double>(h >> 11) * 0x1.0p-53, true};
}

std::string fresh_dir() {
  char templ[] = "/tmp/repro_microwal_XXXXXX";
  const char* dir = ::mkdtemp(templ);
  return dir != nullptr ? dir : "/tmp";
}

/// One fsync'd tell append per iteration — the durability tax on the tell
/// hot path (the fsync dominates; the JSON encode is noise).
void BM_WalAppendFsync(benchmark::State& state) {
  const std::string dir = fresh_dir();
  const service::OpenParams params = small_open(100);
  const tuner::ParamSpace space = params.make_space();
  auto wal = service::SessionWal::create(service::wal_path(dir, "s1"), "s1", "",
                                         params);
  const tuner::Configuration config{4, 2, 3};
  const tuner::Evaluation eval = synth_eval(space, config);
  std::uint64_t seq = 0;
  std::size_t appends = 0;
  for (auto _ : state) {
    if (wal == nullptr || !wal->append_tell(++seq, config, eval)) {
      state.SkipWithError("append failed");
      break;
    }
    ++appends;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(appends));
  state.SetLabel("fsync'd tell record append");
  wal.reset();
  (void)std::remove(service::wal_path(dir, "s1").c_str());
  (void)::rmdir(dir.c_str());
}

/// Full crash-recovery round trip per iteration: a SessionManager journals a
/// `budget`-tell rs session, "crashes" (destruction without close), and a
/// fresh manager recovers it by replay. Items = tells replayed, so the
/// per-item rate is recovery cost per journaled evaluation.
void BM_WalRecoverReplay(benchmark::State& state) {
  const auto budget = static_cast<std::size_t>(state.range(0));
  const service::OpenParams params = small_open(budget);
  const tuner::ParamSpace space = params.make_space();
  std::size_t replayed = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const std::string dir = fresh_dir();
    service::SessionLimits limits;
    limits.state_dir = dir;
    std::string id;
    {
      service::SessionManager manager(limits);
      id = manager.open(params);
      std::uint64_t seq = 0;
      for (std::size_t i = 0; i < budget; ++i) {
        const auto config = manager.ask(id);
        if (!config) break;
        manager.tell(id, synth_eval(space, *config), ++seq);
      }
    }
    state.ResumeTiming();
    service::SessionManager recovered(limits);
    const service::MetricsSnapshot stats = recovered.recover();
    benchmark::DoNotOptimize(stats);
    replayed += stats[service::Metric::kTellsReplayed];
    state.PauseTiming();
    recovered.close(id);
    (void)::rmdir(dir.c_str());
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(replayed));
  state.SetLabel("recover() of an rs session @ " + std::to_string(budget) +
                 " journaled tells");
}

/// Journal load alone (parse + torn-tail scan), without the session replay:
/// the pure IO/parse floor under BM_WalRecoverReplay.
void BM_WalLoad(benchmark::State& state) {
  const auto budget = static_cast<std::size_t>(state.range(0));
  const std::string dir = fresh_dir();
  const service::OpenParams params = small_open(budget);
  const tuner::ParamSpace space = params.make_space();
  service::SessionLimits limits;
  limits.state_dir = dir;
  std::string id;
  {
    service::SessionManager manager(limits);
    id = manager.open(params);
    std::uint64_t seq = 0;
    for (std::size_t i = 0; i < budget; ++i) {
      const auto config = manager.ask(id);
      if (!config) break;
      manager.tell(id, synth_eval(space, *config), ++seq);
    }
  }
  const std::string path = service::wal_path(dir, id);
  std::size_t records = 0;
  for (auto _ : state) {
    const service::WalSession journal = service::load_session_wal(path);
    benchmark::DoNotOptimize(journal);
    records += journal.tells.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
  state.SetLabel("journal parse @ " + std::to_string(budget) + " tells");
  (void)std::remove(path.c_str());
  (void)::rmdir(dir.c_str());
}

BENCHMARK(BM_WalAppendFsync);
BENCHMARK(BM_WalRecoverReplay)->Arg(25)->Arg(100)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WalLoad)->Arg(100);

}  // namespace

BENCHMARK_MAIN();
