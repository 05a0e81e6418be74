// Results-store replication across the hot-standby pair: ship-applied tells
// populate the standby's own store record-for-record (the ack barrier runs
// through the follower's fsync), so after a failover the promoted shard
// holds the identical tenant history — and warm-starts future sessions
// exactly like the primary it replaced would have.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "service/server.hpp"
#include "store/results_store.hpp"
#include "tests/cluster/cluster_test_util.hpp"

namespace repro::service {
namespace {

using cluster_test::fresh_dir;
using cluster_test::resilient_config;
using cluster_test::same_result;
using cluster_test::tiny_open;
using service_test::synth_eval;

constexpr std::uint64_t kSalt = 17;

OpenParams tenant_open(const std::string& algorithm, std::size_t budget,
                       std::uint64_t seed, bool warm = false) {
  OpenParams params = tiny_open(algorithm, budget, seed);
  params.benchmark = "conv";
  params.arch = "simcard";
  params.warm_start = warm;
  return params;
}

/// ReplicatedPair with a results store on both sides.
struct StoredPair {
  std::string dir = fresh_dir();
  std::unique_ptr<TuneServer> standby;
  std::unique_ptr<TuneServer> primary;

  StoredPair() {
    ServerConfig standby_config;
    standby_config.standby = true;
    standby_config.limits.state_dir = dir + "/standby";
    standby_config.store_dir = dir + "/standby-store";
    standby = std::make_unique<TuneServer>(standby_config);
    standby->start();

    ServerConfig primary_config;
    primary_config.limits.state_dir = dir + "/primary";
    primary_config.store_dir = dir + "/primary-store";
    primary_config.limits.ship.port = standby->port();
    primary = std::make_unique<TuneServer>(primary_config);
    primary->start();
  }

  void crash_primary() {
    primary->stop();
    primary.reset();
  }
};

TEST(StoreReplication, ShippedTellsKeepBothStoresDigestEqual) {
  StoredPair pair;
  const OpenParams params = tenant_open("rs", 16, 11);
  const tuner::ParamSpace space = params.make_space();
  Client client(resilient_config(pair.primary->port()));
  const std::string id = client.open(params, "store#1");
  for (int i = 0; i < 8; ++i) {
    const auto config = client.ask(id);
    ASSERT_TRUE(config.has_value());
    (void)client.tell(id, synth_eval(space, *config, kSalt));
    // The tell ack passed through the standby's apply: both stores hold the
    // record already — digest equality at every step, not just at the end.
    ASSERT_EQ(pair.primary->store()->digest(), pair.standby->store()->digest())
        << "stores diverged after tell " << i;
  }
  ASSERT_TRUE(pair.primary->sessions().metrics()[Metric::kShipConnected]);
  EXPECT_GE(pair.standby->store()->stats().records, 1u);
}

TEST(StoreReplication, ImportedSeedBatchesReachTheStandbyStore) {
  // Seed history produced on a standalone daemon, exported, and imported
  // into the replicated pair's primary: the import must ship to the standby
  // like live tells do, so a later failover keeps the seed rows too.
  std::vector<store::TenantSnapshot> seed;
  {
    ServerConfig config;
    config.store_dir = fresh_dir() + "/seed-store";
    TuneServer server(config);
    server.start();
    const OpenParams params = tenant_open("rs", 10, 5);
    const tuner::ParamSpace space = params.make_space();
    Client client(resilient_config(server.port()));
    (void)client.remote_minimize(params,
                                 [&space](const tuner::Configuration& c) {
                                   return synth_eval(space, c, kSalt);
                                 });
    seed = server.store()->export_tenants();
    server.stop();
  }
  ASSERT_FALSE(seed.empty());

  StoredPair pair;
  Client client(resilient_config(pair.primary->port()));
  ASSERT_GE(client.store_import(seed), 1u);
  EXPECT_GE(pair.standby->store()->stats().records, 1u);
  EXPECT_EQ(pair.primary->store()->digest(), pair.standby->store()->digest())
      << "imported seed batch did not replicate to the standby";

  // Redelivery is idempotent: importing the same batch again leaves both
  // stores where they were (dedup on each side).
  const std::uint64_t digest = pair.primary->store()->digest();
  EXPECT_EQ(client.store_import(seed), 0u);
  EXPECT_EQ(pair.primary->store()->digest(), digest);
  EXPECT_EQ(pair.standby->store()->digest(), digest);
}

TEST(StoreReplication, PromotedStandbyWarmStartsIdenticallyToItsPrimary) {
  StoredPair pair;
  const OpenParams seed_params = tenant_open("rs", 24, 3);
  const tuner::ParamSpace space = seed_params.make_space();
  Client client(resilient_config(pair.primary->port()));
  const std::string id = client.open(seed_params, "seed#1");
  while (const auto config = client.ask(id)) {
    (void)client.tell(id, synth_eval(space, *config, kSalt));
  }
  client.close_session(id);
  ASSERT_EQ(pair.primary->store()->digest(), pair.standby->store()->digest());

  // Control: a third daemon seeded with a byte-copy of the replicated store
  // runs the warm session uninterrupted.
  const OpenParams warm = tenant_open("botpe", 16, 9, /*warm=*/true);
  tuner::TuneResult control;
  {
    ServerConfig config;
    config.store_dir = fresh_dir() + "/control-store";
    TuneServer server(config);
    server.start();
    Client control_client(resilient_config(server.port()));
    ASSERT_GE(server.store()->import_tenants(
                  pair.standby->store()->export_tenants()),
              1u);
    control = control_client
                  .remote_minimize(warm,
                                   [&space](const tuner::Configuration& c) {
                                     return synth_eval(space, c, kSalt);
                                   })
                  .result;
    server.stop();
  }

  // Failover: the promoted standby must derive the same prior from its own
  // replicated store and produce the identical warm-started search.
  pair.crash_primary();
  pair.standby->promote();
  Client promoted(resilient_config(pair.standby->port()));
  const tuner::TuneResult after_failover =
      promoted
          .remote_minimize(warm,
                           [&space](const tuner::Configuration& c) {
                             return synth_eval(space, c, kSalt);
                           })
          .result;
  EXPECT_TRUE(same_result(control, after_failover))
      << "promoted standby warm-started differently than its primary would have";
}

TEST(StoreReplication, StandbyStoreSurvivesItsOwnRestart) {
  StoredPair pair;
  const OpenParams params = tenant_open("rs", 12, 21);
  const tuner::ParamSpace space = params.make_space();
  Client client(resilient_config(pair.primary->port()));
  const std::string id = client.open(params, "restart#1");
  for (int i = 0; i < 6; ++i) {
    const auto config = client.ask(id);
    ASSERT_TRUE(config.has_value());
    (void)client.tell(id, synth_eval(space, *config, kSalt));
  }
  const std::uint64_t digest = pair.standby->store()->digest();

  // Restart the standby over its own journals AND its own store log: the
  // store reloads to the identical digest (ship resync then re-delivers the
  // records; dedup makes the replay invisible).
  const std::uint16_t standby_port = pair.standby->port();
  pair.standby->stop();
  pair.standby.reset();
  ServerConfig standby_config;
  standby_config.standby = true;
  standby_config.port = standby_port;
  standby_config.limits.state_dir = pair.dir + "/standby";
  standby_config.store_dir = pair.dir + "/standby-store";
  pair.standby = std::make_unique<TuneServer>(standby_config);
  pair.standby->start();
  EXPECT_EQ(pair.standby->store()->digest(), digest);

  // More tells after the resync: both sides keep agreeing.
  for (int i = 0; i < 3; ++i) {
    const auto config = client.ask(id);
    ASSERT_TRUE(config.has_value());
    (void)client.tell(id, synth_eval(space, *config, kSalt));
  }
  EXPECT_EQ(pair.primary->store()->digest(), pair.standby->store()->digest());
}

}  // namespace
}  // namespace repro::service
