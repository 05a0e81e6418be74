// Record-level WAL-shipping edge cases: a follower left behind by a torn
// journal tail, whole-journal duplicate delivery after a reconnect, and
// the promotion race where a tell was acknowledged by the primary but the
// client's ack was lost — the retried seq must come back as a duplicate
// on the promoted follower, never as a double apply.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>

#include "service/server.hpp"
#include "service/session_wal.hpp"
#include "tests/cluster/cluster_test_util.hpp"

namespace repro::service {
namespace {

using cluster_test::fresh_dir;
using cluster_test::read_file;
using cluster_test::resilient_config;
using cluster_test::same_result;
using cluster_test::tiny_open;
using service_test::synth_eval;

struct ReplicatedPair {
  std::string dir = fresh_dir();
  std::unique_ptr<TuneServer> standby;
  std::unique_ptr<TuneServer> primary;

  ReplicatedPair() {
    ServerConfig standby_config;
    standby_config.standby = true;
    standby_config.limits.state_dir = dir + "/standby";
    standby = std::make_unique<TuneServer>(standby_config);
    standby->start();

    ServerConfig primary_config;
    primary_config.limits.state_dir = dir + "/primary";
    primary_config.limits.ship.port = standby->port();
    primary = std::make_unique<TuneServer>(primary_config);
    primary->start();
  }

  /// Stop + restart the standby on the same port over the same journals.
  void restart_standby() {
    const std::uint16_t port = standby->port();
    standby->stop();
    standby.reset();
    ServerConfig config;
    config.standby = true;
    config.port = port;
    config.limits.state_dir = dir + "/standby";
    standby = std::make_unique<TuneServer>(config);
    standby->start();
  }
};

/// Tear the final record off a journal: keep everything up to the last
/// complete line's newline, then append an unterminated fragment.
void tear_tail(const std::string& path) {
  std::string text = read_file(path);
  ASSERT_FALSE(text.empty());
  ASSERT_EQ(text.back(), '\n');
  const std::size_t last_line_start = text.rfind('\n', text.size() - 2);
  ASSERT_NE(last_line_start, std::string::npos);
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << text.substr(0, last_line_start + 1) << "{\"op\":\"tel";
}

TEST(WalShipEdge, FollowerBehindByTornTailCatchesUpOnResync) {
  ReplicatedPair pair;
  const OpenParams params = tiny_open("rs", 16, 51);
  const tuner::ParamSpace space = params.make_space();
  Client client(resilient_config(pair.primary->port()));
  const std::string id = client.open(params, "torn#1");
  for (int i = 0; i < 4; ++i) {
    const auto config = client.ask(id);
    ASSERT_TRUE(config.has_value());
    (void)client.tell(id, synth_eval(space, *config, 17));
  }

  // Crash the follower and tear the last record (tell seq 4) off its
  // journal: it restarts one acknowledged tell behind the primary.
  pair.standby->stop();
  pair.standby.reset();
  const std::vector<std::string> journals =
      list_session_wals(pair.dir + "/standby");
  ASSERT_EQ(journals.size(), 1u);
  tear_tail(journals[0]);
  const WalSession torn = load_session_wal(journals[0]);
  EXPECT_TRUE(torn.torn_tail);
  ASSERT_EQ(torn.tells.size(), 3u);

  ServerConfig config;
  config.standby = true;
  config.limits.state_dir = pair.dir + "/standby";
  pair.standby = std::make_unique<TuneServer>(config);
  pair.standby->start();
  EXPECT_EQ(pair.standby->sessions().metrics()[Metric::kTells], 3u);

  // Point the primary's shipper at the restarted follower (fresh
  // ephemeral port): reconnect -> resync re-ships the whole journal;
  // seqs 1..3 come back as duplicates, seq 4 closes the gap.
  // (The primary cannot re-dial a moved port, so re-create it over its
  // own journals with the new ship target — same records either way.)
  pair.primary->stop();
  pair.primary.reset();
  ServerConfig primary_config;
  primary_config.limits.state_dir = pair.dir + "/primary";
  primary_config.limits.ship.port = pair.standby->port();
  pair.primary = std::make_unique<TuneServer>(primary_config);
  pair.primary->start();

  const MetricsSnapshot primary_status = pair.primary->sessions().metrics();
  EXPECT_TRUE(primary_status[Metric::kShipConnected]);
  EXPECT_GE(primary_status[Metric::kShipDuplicatesAcked], 3u);
  EXPECT_EQ(pair.standby->sessions().metrics()[Metric::kTells], 4u)
      << "the torn-off tell never reached the follower's live session";
}

TEST(WalShipEdge, WholeJournalDuplicateDeliveryIsIdempotent) {
  ReplicatedPair pair;
  const OpenParams params = tiny_open("rs", 16, 61);
  const tuner::ParamSpace space = params.make_space();

  // Baseline for the final byte-identity check.
  TuneServer plain;
  plain.start();
  Client clean(resilient_config(plain.port()));
  const Client::RemoteResult baseline = clean.remote_minimize(
      params,
      [&space](const tuner::Configuration& c) { return synth_eval(space, c, 19); });
  plain.stop();

  Client client(resilient_config(pair.primary->port()));
  const std::string id = client.open(params, "dup#1");
  for (int i = 0; i < 5; ++i) {
    const auto config = client.ask(id);
    ASSERT_TRUE(config.has_value());
    (void)client.tell(id, synth_eval(space, *config, 19));
  }
  // Follower restart with an *intact* journal: the resync re-ships open +
  // all five tells and every one must come back a duplicate ack.
  pair.restart_standby();
  {
    const auto config = client.ask(id);
    ASSERT_TRUE(config.has_value());
    (void)client.tell(id, synth_eval(space, *config, 19));
  }
  const MetricsSnapshot primary_status = pair.primary->sessions().metrics();
  EXPECT_GE(primary_status[Metric::kShipResyncs], 2u);
  EXPECT_GE(primary_status[Metric::kShipDuplicatesAcked], 5u);
  EXPECT_EQ(pair.standby->sessions().metrics()[Metric::kTells], 6u);

  // And the replica still mirrors the primary bit-for-bit: promote it and
  // finish the session there.
  pair.primary->stop();
  pair.primary.reset();
  pair.standby->promote();
  Client resumed_client(resilient_config(pair.standby->port()));
  while (const auto config = resumed_client.ask(id)) {
    (void)resumed_client.tell(id, synth_eval(space, *config, 19));
  }
  const Client::RemoteResult resumed = resumed_client.result(id);
  EXPECT_TRUE(same_result(baseline.result, resumed.result));
}

TEST(WalShipEdge, PromotionRaceRetriedInFlightTellIsADuplicate) {
  ReplicatedPair pair;
  const OpenParams params = tiny_open("rs", 16, 71);
  const tuner::ParamSpace space = params.make_space();

  TuneServer plain;
  plain.start();
  Client clean(resilient_config(plain.port()));
  const Client::RemoteResult baseline = clean.remote_minimize(
      params,
      [&space](const tuner::Configuration& c) { return synth_eval(space, c, 23); });
  plain.stop();

  Client client(resilient_config(pair.primary->port()));
  const std::string id = client.open(params, "race#1");
  for (int i = 0; i < 5; ++i) {
    const auto config = client.ask(id);
    ASSERT_TRUE(config.has_value());
    (void)client.tell(id, synth_eval(space, *config, 23));
  }
  // The in-flight tell: seq 6 reaches the primary (journaled + shipped,
  // so it IS acknowledged durably) but the client never sees the ack.
  const auto sixth = client.ask(id);
  ASSERT_TRUE(sixth.has_value());
  Json in_flight = Json::object();
  in_flight.set("op", "tell");
  in_flight.set("session", id);
  in_flight.set("seq", std::uint64_t{6});
  encode_evaluation_into(in_flight, synth_eval(space, *sixth, 23));
  (void)client.call(in_flight);  // ack dropped on the floor by this test

  // The primary dies; the follower is promoted.
  pair.primary->stop();
  pair.primary.reset();
  pair.standby->promote();

  // The client's retry of seq 6 lands on the new primary: it must be
  // acknowledged as a duplicate, not applied a second time.
  Client retry(resilient_config(pair.standby->port()));
  retry.connect();
  const Json ack = retry.call(in_flight);
  const Json* duplicate = ack.find("duplicate");
  ASSERT_NE(duplicate, nullptr);
  EXPECT_TRUE(duplicate->as_bool());

  // Finish on the promoted follower: raw tells with explicit seqs so the
  // watermark keeps advancing exactly as a reconnecting client would.
  std::uint64_t seq = 7;
  while (const auto config = retry.ask(id)) {
    Json tell = Json::object();
    tell.set("op", "tell");
    tell.set("session", id);
    tell.set("seq", seq++);
    encode_evaluation_into(tell, synth_eval(space, *config, 23));
    (void)retry.call(tell);
  }
  const Client::RemoteResult resumed = retry.result(id);
  EXPECT_TRUE(same_result(baseline.result, resumed.result))
      << "the promotion race double-applied or dropped the in-flight tell";
}

}  // namespace
}  // namespace repro::service
