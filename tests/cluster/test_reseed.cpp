// Self-healing replication: after a failover consumes a shard's standby,
// the router's prober attaches a replacement follower (a warm spare, or
// the deposed ex-primary once it auto-demotes and rejoins), the primary
// resyncs it store-snapshot-first with a digest gate, and the shard is
// ready for the next fault. The headline test SIGKILLs two primaries in a
// row mid-campaign and requires a byte-identical study — zero acknowledged
// tells lost across both faults.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/router.hpp"
#include "service/server.hpp"
#include "tests/cluster/cluster_test_util.hpp"

namespace repro::service {
namespace {

using cluster_test::Proc;
using cluster_test::resilient_config;
using cluster_test::same_result;
using cluster_test::tiny_open;
using service_test::synth_eval;

std::unique_ptr<TuneServer> start_standby(const std::string& state_dir,
                                          std::uint16_t port = 0) {
  ServerConfig config;
  config.standby = true;
  config.port = port;
  config.limits.state_dir = state_dir;
  auto server = std::make_unique<TuneServer>(config);
  server->start();
  return server;
}

TEST(Reseed, DoublePromoteRaceFlipsTheRoleExactlyOnce) {
  const test_util::ScratchDir scratch("repro_cluster");
  const std::string dir = scratch.path();
  std::unique_ptr<TuneServer> standby = start_standby(dir + "/standby");
  // Two racing promotes (e.g. two routers both declaring the primary dead):
  // exactly one flips the role; the loser is a typed no-op, not an error.
  std::atomic<int> flipped{0};
  std::thread racer([&] {  // NOLINT(reprolint-raw-thread)
    if (standby->promote()) flipped.fetch_add(1);
  });
  if (standby->promote()) flipped.fetch_add(1);
  racer.join();
  EXPECT_EQ(flipped.load(), 1);
  EXPECT_FALSE(standby->standby());

  // Over the wire the retry/no-op is observable as "already_primary".
  Client client(resilient_config(standby->port()));
  (void)client.status();  // connect + hello
  Json promote = Json::object();
  promote.set("op", "promote");
  const Json reply = client.call(promote);
  EXPECT_TRUE(reply.find("ok")->as_bool());
  ASSERT_NE(reply.find("already_primary"), nullptr);
  EXPECT_TRUE(reply.find("already_primary")->as_bool());
  EXPECT_EQ(reply.find("role")->as_string(), "primary");
  standby->stop();
}

TEST(Reseed, ProberAttachesASpareAndTheShardSurvivesASecondCrash) {
  const OpenParams params = tiny_open("rs", 18, 42);
  const tuner::ParamSpace space = params.make_space();

  // Uninterrupted baseline on a plain server.
  TuneServer plain;
  plain.start();
  Client clean(resilient_config(plain.port()));
  const Client::RemoteResult baseline = clean.remote_minimize(
      params,
      [&space](const tuner::Configuration& c) { return synth_eval(space, c, 13); });
  plain.stop();

  const test_util::ScratchDir scratch("repro_cluster");
  const std::string dir = scratch.path();
  std::unique_ptr<TuneServer> standby = start_standby(dir + "/standby");
  std::unique_ptr<TuneServer> spare = start_standby(dir + "/spare");
  ServerConfig primary_config;
  primary_config.limits.state_dir = dir + "/primary";
  primary_config.limits.ship.port = standby->port();
  auto primary = std::make_unique<TuneServer>(primary_config);
  primary->start();

  RouterConfig router_config;
  router_config.shards = {
      {"127.0.0.1", primary->port(), "127.0.0.1", standby->port()}};
  router_config.spares = {{"127.0.0.1", spare->port()}};
  router_config.probe_interval = std::chrono::milliseconds(0);  // probe_now only
  router_config.probe_timeout = std::chrono::milliseconds(500);
  Router router(router_config);
  router.start();

  Client client(resilient_config(router.port()));
  const std::string id = client.open(params, "reseed#double");
  for (int i = 0; i < 5; ++i) {
    const auto config = client.ask(id);
    ASSERT_TRUE(config.has_value());
    (void)client.tell(id, synth_eval(space, *config, 13));
  }

  // Fault 1: the primary dies; the forward failure promotes the standby.
  primary->stop();
  primary.reset();
  for (int i = 0; i < 2; ++i) {
    const auto config = client.ask(id);
    ASSERT_TRUE(config.has_value());
    (void)client.tell(id, synth_eval(space, *config, 13));
  }
  ASSERT_EQ(router.shards()[0].promotions, 1u);
  ASSERT_FALSE(router.shards()[0].has_standby);

  // One probe pass re-seeds: the deposed primary is dead, so the spare is
  // picked, resynced by the new primary, and adopted as the standby.
  router.probe_now();
  const std::vector<ShardSnapshot> healed = router.shards();
  EXPECT_TRUE(healed[0].has_standby);
  EXPECT_EQ(healed[0].reseeds, 1u);
  const MetricsSnapshot shipping = standby->sessions().metrics();
  EXPECT_TRUE(shipping[Metric::kShipEnabled]);
  EXPECT_TRUE(shipping[Metric::kShipConnected]);
  EXPECT_GE(shipping[Metric::kShipResyncs], 1u);

  // Fault 2: the new primary dies mid-campaign; the re-seeded spare takes
  // over and the study completes byte-identically — no acked tell lost
  // across either fault.
  standby->stop();
  standby.reset();
  while (const auto config = client.ask(id)) {
    (void)client.tell(id, synth_eval(space, *config, 13));
  }
  const Client::RemoteResult resumed = client.result(id);
  client.close_session(id);
  EXPECT_TRUE(same_result(baseline.result, resumed.result))
      << "study diverged across two crashes + a re-seed";
  const std::vector<ShardSnapshot> after = router.shards();
  EXPECT_EQ(after[0].promotions, 2u);
  EXPECT_EQ(after[0].port, spare->port());
  router.stop();
  spare->stop();
}

TEST(Reseed, DeposedPrimaryAutoDemotesAndIsReseededByTheNewPrimary) {
  const test_util::ScratchDir scratch("repro_cluster");
  const std::string dir = scratch.path();
  std::unique_ptr<TuneServer> standby = start_standby(dir + "/standby");
  ServerConfig primary_config;
  primary_config.limits.state_dir = dir + "/primary";
  primary_config.limits.ship.port = standby->port();
  primary_config.auto_rejoin = true;
  primary_config.poll_interval = std::chrono::milliseconds(50);
  auto primary = std::make_unique<TuneServer>(primary_config);
  primary->start();

  const OpenParams params = tiny_open("rs", 16, 7);
  const tuner::ParamSpace space = params.make_space();
  Client client(resilient_config(primary->port()));
  const std::string id = client.open(params, "rejoin#1");
  for (int i = 0; i < 3; ++i) {
    const auto config = client.ask(id);
    ASSERT_TRUE(config.has_value());
    (void)client.tell(id, synth_eval(space, *config, 9));
  }

  // The standby is promoted behind the old primary's back (it lost a
  // failover race). Its next acknowledged tell cannot replicate — the
  // wrong_role answer fences the shipper, and auto_rejoin turns the fence
  // into a self-demotion: divergent journals dropped, role flipped back
  // to standby, zero operator action.
  standby->promote();
  const auto divergent = client.ask(id);
  ASSERT_TRUE(divergent.has_value());
  (void)client.tell(id, synth_eval(space, *divergent, 9));
  bool demoted = false;
  for (int i = 0; i < 200 && !(demoted = primary->standby()); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(demoted) << "fenced primary never demoted itself";
  EXPECT_EQ(primary->metrics()[Metric::kDemotions], 1u);
  EXPECT_EQ(primary->sessions().live(), 0u);  // divergent state is gone

  // The new primary re-seeds the rejoined follower from its own journals;
  // the divergent 4th tell (acked only by the deposed primary) is not
  // replayed — the shard's truth is the promoted side's 3-tell history.
  // The tells metric is a lifetime counter that survives the demote reset,
  // so assert the delta, not the absolute.
  const std::size_t tells_before = primary->sessions().metrics()[Metric::kTells];
  ASSERT_TRUE(standby->sessions().reseed("127.0.0.1", primary->port()));
  EXPECT_EQ(primary->sessions().metrics()[Metric::kTells], tells_before + 3);
  EXPECT_EQ(primary->sessions().metrics()[Metric::kLiveSessions], 1u);

  // New tells replicate to the rejoined follower like any hot standby's.
  Client promoted_client(resilient_config(standby->port()));
  for (int i = 0; i < 2; ++i) {
    const auto config = promoted_client.ask(id);
    ASSERT_TRUE(config.has_value());
    (void)promoted_client.tell(id, synth_eval(space, *config, 9));
  }
  EXPECT_EQ(primary->sessions().metrics()[Metric::kTells], tells_before + 5);
  const MetricsSnapshot shipping = standby->sessions().metrics();
  EXPECT_TRUE(shipping[Metric::kShipConnected]);
  EXPECT_FALSE(shipping[Metric::kShipFenced]);
  standby->stop();
  primary->stop();
}

TEST(Reseed, ResyncResumesFromWatermarksWhenTheFollowerCrashesAndReturns) {
  const test_util::ScratchDir scratch("repro_cluster");
  const std::string dir = scratch.path();
  std::unique_ptr<TuneServer> follower = start_standby(dir + "/follower");
  ServerConfig primary_config;
  primary_config.limits.state_dir = dir + "/primary";
  auto primary = std::make_unique<TuneServer>(primary_config);
  primary->start();

  const OpenParams params = tiny_open("rs", 16, 31);
  const tuner::ParamSpace space = params.make_space();
  Client client(resilient_config(primary->port()));
  const std::string id = client.open(params, "resume#1");
  for (int i = 0; i < 3; ++i) {
    const auto config = client.ask(id);
    ASSERT_TRUE(config.has_value());
    (void)client.tell(id, synth_eval(space, *config, 9));
  }

  // Runtime re-seed of a primary that was born without a follower: the
  // retargeted shipper resyncs the whole history and flips hot.
  ASSERT_TRUE(primary->sessions().reseed("127.0.0.1", follower->port()));
  EXPECT_EQ(follower->sessions().metrics()[Metric::kTells], 3u);

  // The follower crashes mid-service and comes back over its own journals
  // on the same port. The next ship reconnects and resyncs again; the
  // recovered follower acks the journal replays as duplicates (per-session
  // seq watermarks make the replay idempotent) instead of double-applying.
  const std::uint16_t follower_port = follower->port();
  follower->stop();
  follower.reset();
  follower = start_standby(dir + "/follower", follower_port);
  EXPECT_EQ(follower->sessions().metrics()[Metric::kSessionsRecovered], 1u);
  for (int i = 0; i < 2; ++i) {
    const auto config = client.ask(id);
    ASSERT_TRUE(config.has_value());
    (void)client.tell(id, synth_eval(space, *config, 9));
  }
  const MetricsSnapshot status = primary->sessions().metrics();
  EXPECT_TRUE(status[Metric::kShipConnected]);
  EXPECT_GE(status[Metric::kShipResyncs], 2u);
  EXPECT_GE(status[Metric::kShipDuplicatesAcked], 3u);
  EXPECT_EQ(follower->sessions().metrics()[Metric::kTells], 5u);
  follower->stop();
  primary->stop();
}

TEST(Reseed, SigkillDoubleFaultThroughTheRouterIsByteIdentical) {
  const OpenParams params = tiny_open("rs", 20, 77);
  const tuner::ParamSpace space = params.make_space();

  // Uninterrupted baseline on a plain in-process server.
  TuneServer plain;
  plain.start();
  Client clean(resilient_config(plain.port()));
  const Client::RemoteResult baseline = clean.remote_minimize(
      params,
      [&space](const tuner::Configuration& c) { return synth_eval(space, c, 21); });
  plain.stop();

  const test_util::ScratchDir scratch("repro_cluster");
  const std::string dir = scratch.path();
  Proc standby({REPRO_TUNED_BIN, "--standby", "--state-dir", dir + "/b"},
               dir + "/b.log");
  ASSERT_NE(standby.port, 0);
  Proc spare({REPRO_TUNED_BIN, "--standby", "--state-dir", dir + "/c"},
             dir + "/c.log");
  ASSERT_NE(spare.port, 0);
  Proc primary({REPRO_TUNED_BIN, "--state-dir", dir + "/a", "--ship-to",
                std::to_string(standby.port)},
               dir + "/a.log");
  ASSERT_NE(primary.port, 0);
  Proc router({REPRO_TUNELB_BIN, "--shards",
               std::to_string(primary.port) + "/" + std::to_string(standby.port),
               "--spares", std::to_string(spare.port), "--probe-interval-ms",
               "100", "--probe-timeout-ms", "1000", "--probe-failures", "2"},
              dir + "/lb.log");
  ASSERT_NE(router.port, 0);

  Client client(resilient_config(router.port));
  const std::string id = client.open(params, "sigkill#double");
  for (int i = 0; i < 5; ++i) {
    const auto config = client.ask(id);
    ASSERT_TRUE(config.has_value());
    (void)client.tell(id, synth_eval(space, *config, 21));
  }

  // Fault 1: SIGKILL the primary. Client retries ride out the failover;
  // the prober then re-seeds the promoted standby from the spare pool.
  primary.kill9();
  for (int i = 0; i < 5; ++i) {
    const auto config = client.ask(id);
    ASSERT_TRUE(config.has_value());
    (void)client.tell(id, synth_eval(space, *config, 21));
  }
  bool reseeded = false;
  for (int i = 0; i < 300 && !reseeded; ++i) {
    const Json status = client.status();
    const Json& shard = status.find("shards")->as_array()[0];
    reseeded = shard.find("reseeds")->as_uint64() >= 1 &&
               shard.find("has_standby")->as_bool();
    if (!reseeded) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_TRUE(reseeded) << "prober never attached the spare: "
                        << cluster_test::read_file(dir + "/lb.log");

  // Fault 2: SIGKILL the new primary mid-campaign. The re-seeded spare is
  // promoted and the study must finish byte-identically — zero
  // acknowledged tells lost across both faults.
  standby.kill9();
  while (const auto config = client.ask(id)) {
    (void)client.tell(id, synth_eval(space, *config, 21));
  }
  const Client::RemoteResult resumed = client.result(id);
  client.close_session(id);
  EXPECT_TRUE(same_result(baseline.result, resumed.result))
      << "study diverged across two SIGKILLs; router log:\n"
      << cluster_test::read_file(dir + "/lb.log");
  const Json status = client.status();
  EXPECT_EQ(status.find("shards")->as_array()[0].find("promotions")->as_uint64(),
            2u);
}

}  // namespace
}  // namespace repro::service
