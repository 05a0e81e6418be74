// Microbenchmarks for the sharded cluster path: what does routing a
// session through `tunelb`'s Router add on top of a direct loopback
// session, and what does the hot-standby replication barrier (fsync'd WAL
// append + synchronous ship to a live follower) cost per acknowledged
// tell? Synthetic objective, so the numbers isolate routing + replication
// machinery from kernel simulation cost. The failover blackout window is
// measured by tools/loadgen (it needs a mid-run topology fault, which a
// steady-state google-benchmark loop cannot express).

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

#include "common/rng.hpp"
#include "service/client.hpp"
#include "service/router.hpp"
#include "service/server.hpp"
#include "tuner/registry.hpp"

namespace {

using namespace repro;

tuner::ParamSpace small_space() {
  return tuner::ParamSpace({{"a", 1, 8}, {"b", 1, 8}, {"c", 0, 5}});
}

/// Pure pseudo-measurement: hash of the encoded configuration, shaped into
/// [1, ~1.5). No RNG state, so every session sees identical values.
tuner::Evaluation synth_eval(const tuner::ParamSpace& space,
                             const tuner::Configuration& config) {
  std::uint64_t state = seed_combine(99, space.encode(config) + 1);
  const std::uint64_t h = splitmix64(state);
  return tuner::Evaluation{1.0 + static_cast<double>(h >> 11) * 0x1.0p-53, true};
}

service::OpenParams open_params(std::size_t budget) {
  service::OpenParams params;
  params.algorithm = "rs";
  params.budget = budget;
  params.custom_space = true;
  params.params = {{"a", 1, 8}, {"b", 1, 8}, {"c", 0, 5}};
  return params;
}

std::string fresh_dir() {
  char name[] = "/tmp/repro_micro_cluster_XXXXXX";
  const char* dir = mkdtemp(name);
  return dir != nullptr ? dir : "/tmp";
}

/// Full remote session through Router -> shard: every ask and tell crosses
/// two loopback hops (client->router, router->shard). Compare against
/// micro_service's BM_RemoteSessionThroughput (one hop) for the routing
/// overhead per evaluation.
void BM_RoutedSessionThroughput(benchmark::State& state) {
  service::ServerConfig shard_config;
  shard_config.connection_threads = 2;
  shard_config.poll_interval = std::chrono::milliseconds(20);
  service::TuneServer shard(shard_config);
  shard.start();

  service::RouterConfig router_config;
  router_config.shards = {{"127.0.0.1", shard.port(), "127.0.0.1", 0}};
  router_config.connection_threads = 2;
  router_config.probe_interval = std::chrono::milliseconds(0);
  service::Router router(router_config);
  router.start();

  service::ClientConfig client_config;
  client_config.port = router.port();
  service::Client client(client_config);
  client.connect();

  const tuner::ParamSpace space = small_space();
  service::OpenParams params = open_params(static_cast<std::size_t>(state.range(0)));

  std::uint64_t seed = 0;
  std::size_t evaluations = 0;
  for (auto _ : state) {
    params.seed = seed_combine(11, seed++);
    const std::string session = client.open(params);
    while (auto config = client.ask(session)) {
      evaluations += 1;
      (void)client.tell(session, synth_eval(space, *config));
    }
    benchmark::DoNotOptimize(client.result(session));
    client.close_session(session);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(evaluations));
  state.SetLabel("rs @ " + std::to_string(state.range(0)) +
                 " evals/session via tunelb");

  client.disconnect();
  router.stop();
  shard.stop();
}

/// Replicated tell path: every acknowledged tell pays the fsync'd WAL
/// append on the primary, a synchronous ship RPC, and the follower's
/// fsync'd apply through its own live session. Compare against micro_wal's
/// journal-only numbers for the replication premium.
void BM_ReplicatedSessionThroughput(benchmark::State& state) {
  const std::string dir = fresh_dir();

  service::ServerConfig standby_config;
  standby_config.standby = true;
  standby_config.connection_threads = 2;
  standby_config.poll_interval = std::chrono::milliseconds(20);
  standby_config.limits.state_dir = dir + "/standby";
  service::TuneServer standby(standby_config);
  standby.start();

  service::ServerConfig primary_config;
  primary_config.connection_threads = 2;
  primary_config.poll_interval = std::chrono::milliseconds(20);
  primary_config.limits.state_dir = dir + "/primary";
  primary_config.limits.ship.port = standby.port();
  service::TuneServer primary(primary_config);
  primary.start();

  service::ClientConfig client_config;
  client_config.port = primary.port();
  service::Client client(client_config);
  client.connect();

  const tuner::ParamSpace space = small_space();
  service::OpenParams params = open_params(static_cast<std::size_t>(state.range(0)));

  std::uint64_t seed = 0;
  std::size_t evaluations = 0;
  for (auto _ : state) {
    params.seed = seed_combine(13, seed++);
    const std::string session = client.open(params);
    while (auto config = client.ask(session)) {
      evaluations += 1;
      (void)client.tell(session, synth_eval(space, *config));
    }
    benchmark::DoNotOptimize(client.result(session));
    client.close_session(session);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(evaluations));
  state.SetLabel("rs @ " + std::to_string(state.range(0)) +
                 " evals/session, WAL + hot-standby ship");

  client.disconnect();
  primary.stop();
  standby.stop();
  // Only the two state dirs, then the (then empty) temp dir: fresh_dir()
  // falls back to /tmp itself when mkdtemp fails.
  std::error_code ignored;
  std::filesystem::remove_all(dir + "/standby", ignored);
  std::filesystem::remove_all(dir + "/primary", ignored);
  (void)::rmdir(dir.c_str());
}

/// The router's aggregated status op: one bounded status RPC per shard plus
/// the merge. This is the health/observability hot path tunelb serves.
void BM_AggregatedStatus(benchmark::State& state) {
  service::TuneServer shard0;
  service::TuneServer shard1;
  shard0.start();
  shard1.start();

  service::RouterConfig router_config;
  router_config.shards = {{"127.0.0.1", shard0.port(), "127.0.0.1", 0},
                          {"127.0.0.1", shard1.port(), "127.0.0.1", 0}};
  router_config.connection_threads = 2;
  router_config.probe_interval = std::chrono::milliseconds(0);
  service::Router router(router_config);
  router.start();

  service::ClientConfig client_config;
  client_config.port = router.port();
  service::Client client(client_config);
  client.connect();

  std::size_t calls = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.status());
    ++calls;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(calls));
  state.SetLabel("status fan-out over 2 shards");

  client.disconnect();
  router.stop();
  shard0.stop();
  shard1.stop();
}

BENCHMARK(BM_RoutedSessionThroughput)->Arg(50)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ReplicatedSessionThroughput)->Arg(50)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AggregatedStatus)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
