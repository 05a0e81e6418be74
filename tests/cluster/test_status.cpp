// The `status` wire schema and the router's cluster rollup.
//
// Golden schema: the (key path, JSON type) pairs of a `tuned` status reply
// with WAL, results store, shipping and quotas all on, and of a `tunelb`
// status reply over that shard, are committed under fixtures/. Every pair
// there must still be present: fields may be added, never moved, retyped
// or dropped (docs/SERVICE.md §7).
//
// Rollup oracle: `tunelb` embeds each shard's own status reply, so every
// counter the router reports must equal the sum of the same counter over
// those embedded replies, every flag their OR, and a tenant holding
// sessions on several shards must come back as one merged row.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "service/router.hpp"
#include "service/server.hpp"
#include "tests/cluster/cluster_test_util.hpp"

namespace repro::service {
namespace {

using cluster_test::fresh_dir;
using cluster_test::tiny_open;
using service_test::synth_eval;

const char* type_name(const Json& value) {
  switch (value.type()) {
    case Json::Type::kNull: return "null";
    case Json::Type::kBool: return "bool";
    case Json::Type::kInt:
    case Json::Type::kUint:
    case Json::Type::kDouble: return "number";
    case Json::Type::kString: return "string";
    case Json::Type::kArray: return "array";
    case Json::Type::kObject: return "object";
  }
  return "?";
}

/// Flatten a reply into "path type" lines: object members join with '.',
/// array elements share the path "<array>[]".
void flatten(const Json& value, const std::string& path, std::set<std::string>& out) {
  out.insert(path + " " + type_name(value));
  if (value.is_object()) {
    for (const auto& [key, member] : value.as_object())
      flatten(member, path.empty() ? key : path + "." + key, out);
  } else if (value.is_array()) {
    for (const Json& element : value.as_array()) flatten(element, path + "[]", out);
  }
}

std::set<std::string> schema_of(const Json& reply) {
  std::set<std::string> out;
  flatten(reply, "", out);
  out.erase(" object");  // the root itself
  return out;
}

std::set<std::string> load_fixture(const std::string& name) {
  std::ifstream in(std::string(REPRO_STATUS_FIXTURE_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << "missing fixture " << name;
  std::set<std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') out.insert(line);
  }
  return out;
}

void expect_superset_of_fixture(const Json& reply, const std::string& fixture) {
  const std::set<std::string> golden = load_fixture(fixture);
  ASSERT_FALSE(golden.empty());
  const std::set<std::string> now = schema_of(reply);
  for (const std::string& pair : golden)
    EXPECT_EQ(now.count(pair), 1u) << fixture << ": \"" << pair
                                   << "\" is gone from the status reply";
}

TenantQuotas test_quotas() {
  TenantQuotas quotas;
  quotas.max_sessions_per_tenant = 3;
  quotas.admission_queue_cap = 4;
  quotas.admission_wait = std::chrono::milliseconds(50);
  return quotas;
}

ClientConfig tenant_client(std::uint16_t port, const std::string& tenant) {
  ClientConfig config;
  config.port = port;
  config.name = "statustest";
  config.tenant = tenant;
  return config;
}

/// Run a couple of ask/tell rounds so the session counters move.
void drive(Client& client, const std::string& id, std::size_t rounds) {
  const tuner::ParamSpace space = tiny_open("rs", 1, 1).make_space();
  for (std::size_t i = 0; i < rounds; ++i) {
    const auto config = client.ask(id);
    if (!config) return;
    (void)client.tell(id, synth_eval(space, *config, 3));
  }
}

TEST(StatusSchema, TunedAndTunelbRepliesKeepTheGoldenSchema) {
  // Every optional block switched on: WAL (recovery), results store,
  // shipping to a hot standby (ship, ship_target), tenant quotas (one
  // named tenant row) and a live session (one sessions row).
  const std::string dir = fresh_dir();
  ServerConfig standby_config;
  standby_config.standby = true;
  standby_config.limits.state_dir = dir + "/standby";
  standby_config.store_dir = dir + "/standby-store";
  standby_config.limits.quotas = test_quotas();
  TuneServer standby(standby_config);
  standby.start();
  ServerConfig primary_config;
  primary_config.limits.state_dir = dir + "/primary";
  primary_config.limits.ship.port = standby.port();
  primary_config.store_dir = dir + "/primary-store";
  primary_config.limits.quotas = test_quotas();
  TuneServer primary(primary_config);
  primary.start();
  RouterConfig router_config;
  router_config.shards = {{"127.0.0.1", primary.port(), "127.0.0.1", standby.port()}};
  router_config.probe_interval = std::chrono::milliseconds(0);
  router_config.probe_timeout = std::chrono::milliseconds(2000);
  Router router(router_config);
  router.start();

  Client client(tenant_client(router.port(), "acme"));
  OpenParams params = tiny_open("rs", 8, 11);
  params.benchmark = "schema";
  params.arch = "sim";
  const std::string id = client.open(params, "schema#1");
  drive(client, id, 2);

  Client direct(tenant_client(primary.port(), ""));
  const Json tuned_status = direct.status();
  const Json tunelb_status = client.status();
  expect_superset_of_fixture(tuned_status, "status_schema_tuned.txt");
  expect_superset_of_fixture(tunelb_status, "status_schema_tunelb.txt");
  client.close_session(id);
  router.stop();
}

/// Router value == sum (numbers) / OR (flags) of the same path over the
/// embedded shard replies, for every member of `router_object` except
/// arrays and the router's own fields. Returns how many members it checked.
std::size_t expect_rollup(const Json& router_object,
                          const std::vector<const Json*>& shard_objects,
                          const std::string& path) {
  static const std::set<std::string> kRouterOwn = {"version", "reroutes",
                                                   "active_connections"};
  std::size_t checked = 0;
  for (const auto& [key, value] : router_object.as_object()) {
    const std::string where = path.empty() ? key : path + "." + key;
    if (path.empty() && kRouterOwn.count(key) != 0) continue;
    std::vector<const Json*> members;
    for (const Json* shard : shard_objects) {
      const Json* member = shard->find(key);
      if (member != nullptr) members.push_back(member);
    }
    if (value.is_number()) {
      std::uint64_t sum = 0;
      for (const Json* member : members) sum += member->as_uint64();
      EXPECT_EQ(value.as_uint64(), sum) << where << " is not the sum over shards";
      ++checked;
    } else if (value.is_bool() && key != "ok") {
      bool any = false;
      for (const Json* member : members) any = any || member->as_bool();
      EXPECT_EQ(value.as_bool(), any) << where << " is not the OR over shards";
      ++checked;
    } else if (value.is_object()) {
      checked += expect_rollup(value, members, where);
    }
  }
  return checked;
}

TEST(StatusRollup, RouterSumsEveryShardCounterAndMergesTenantRows) {
  ServerConfig shard_config;
  shard_config.limits.quotas = test_quotas();
  TuneServer shard0(shard_config);
  TuneServer shard1(shard_config);
  shard0.start();
  shard1.start();
  RouterConfig router_config;
  router_config.shards = {{"127.0.0.1", shard0.port(), "127.0.0.1", 0},
                          {"127.0.0.1", shard1.port(), "127.0.0.1", 0}};
  router_config.probe_interval = std::chrono::milliseconds(0);
  router_config.probe_timeout = std::chrono::milliseconds(2000);
  Router router(router_config);
  router.start();

  // One named tenant spread over both shards: with a per-shard quota of 3,
  // twelve tokened opens admit at most six and shed the rest.
  Client acme(tenant_client(router.port(), "acme"));
  std::vector<std::string> ids;
  std::size_t shed = 0;
  for (int i = 0; i < 12; ++i) {
    try {
      ids.push_back(acme.open(tiny_open("rs", 8, 300 + i), "acme#" + std::to_string(i)));
    } catch (const ProtocolError& error) {
      ASSERT_EQ(error.code, ErrorCode::kRetryLater) << error.what();
      ++shed;
    }
  }
  for (const std::string& id : ids) drive(acme, id, 2);
  ASSERT_GT(shed, 0u);
  ASSERT_GE(shard0.sessions().live(), 1u);
  ASSERT_GE(shard1.sessions().live(), 1u);

  const Json status = acme.status();
  const Json* shards = status.find("shards");
  ASSERT_NE(shards, nullptr);
  std::vector<const Json*> shard_status;
  for (const Json& entry : shards->as_array()) {
    const Json* embedded = entry.find("status");
    ASSERT_NE(embedded, nullptr) << "both shards are up; their status must be embedded";
    shard_status.push_back(embedded);
  }
  ASSERT_EQ(shard_status.size(), 2u);

  Json rolled = status;
  rolled.as_object().erase(
      std::remove_if(rolled.as_object().begin(), rolled.as_object().end(),
                     [](const auto& member) { return member.first == "shards"; }),
      rolled.as_object().end());
  EXPECT_GE(expect_rollup(rolled, shard_status, ""), 10u);
  EXPECT_EQ(status.find("live_sessions")->as_uint64(), ids.size());
  EXPECT_EQ(status.find("quotas")->find("shed_over_quota")->as_uint64(), shed);
  EXPECT_TRUE(status.find("quotas")->find("enabled")->as_bool());

  // The tenant's two per-shard rows merge into one cluster row.
  const auto& tenants = status.find("quotas")->find("tenants")->as_array();
  ASSERT_EQ(tenants.size(), 1u);
  EXPECT_EQ(tenants[0].find("tenant")->as_string(), "acme");
  std::size_t shard_rows = 0;
  for (const char* column : {"sessions", "inflight_tells", "queued"}) {
    std::uint64_t sum = 0;
    for (const Json* shard : shard_status) {
      for (const Json& row : shard->find("quotas")->find("tenants")->as_array()) {
        if (row.find("tenant")->as_string() != "acme") continue;
        sum += row.find(column)->as_uint64();
        ++shard_rows;
      }
    }
    EXPECT_EQ(tenants[0].find(column)->as_uint64(), sum) << column;
  }
  EXPECT_EQ(shard_rows, 2u * 3u) << "each shard must report its own acme row";
  EXPECT_EQ(tenants[0].find("sessions")->as_uint64(), ids.size());

  for (const std::string& id : ids) acme.close_session(id);
  router.stop();
}

}  // namespace
}  // namespace repro::service
