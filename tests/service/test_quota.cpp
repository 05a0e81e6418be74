// Tenant-fair admission under overload: per-tenant session quotas, the
// bounded DRR admission queue, anonymous-first shedding, in-flight tell
// quotas, and the status quota schema — at the SessionManager level (where
// outcomes are deterministic) and over the wire (where the tenant identity
// rides the hello and must not be spoofable per-open).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "service/client.hpp"
#include "service/server.hpp"
#include "service/session_manager.hpp"
#include "tests/service/service_test_util.hpp"

namespace repro::service {
namespace {

using service_test::synth_eval;
using service_test::tiny_space;

OpenParams quota_open(const std::string& tenant, std::uint64_t seed = 1,
                      std::size_t budget = 16) {
  OpenParams params;
  params.algorithm = "rs";
  params.budget = budget;
  params.seed = seed;
  params.custom_space = true;
  params.params = {{"a", 1, 8}, {"b", 1, 8}, {"c", 0, 5}};
  params.tenant = tenant;
  return params;
}

SessionLimits quota_limits(std::size_t max_sessions,
                           std::size_t per_tenant,
                           std::size_t queue_cap = 0,
                           std::chrono::milliseconds wait = {}) {
  SessionLimits limits;
  limits.max_sessions = max_sessions;
  limits.retry_after_ms = 10;
  limits.quotas.max_sessions_per_tenant = per_tenant;
  limits.quotas.admission_queue_cap = queue_cap;
  limits.quotas.admission_wait = wait;
  return limits;
}

TEST(Quota, TenantSessionQuotaShedsOverQuotaOpensOnly) {
  SessionManager manager(quota_limits(/*max_sessions=*/8, /*per_tenant=*/2));
  const std::string a1 = manager.open(quota_open("acme", 1));
  const std::string a2 = manager.open(quota_open("acme", 2));
  try {
    (void)manager.open(quota_open("acme", 3));
    FAIL() << "third acme session must hit the tenant quota";
  } catch (const ProtocolError& error) {
    EXPECT_EQ(error.code, ErrorCode::kRetryLater);
    EXPECT_GT(error.retry_after_ms, 0u);
  }
  // Another tenant is untouched by acme's quota pressure.
  const std::string b1 = manager.open(quota_open("beta", 4));
  // Freeing one acme slot re-admits acme.
  manager.close(a1);
  const std::string a3 = manager.open(quota_open("acme", 5));

  const MetricsSnapshot status = manager.metrics();
  EXPECT_TRUE(status[Metric::kQuotasEnabled]);
  EXPECT_EQ(status[Metric::kShedOverQuota], 1u);
  EXPECT_EQ(status[Metric::kShedAnonymous], 0u);
  ASSERT_EQ(status.tenants.size(), 2u);  // sorted: acme, beta
  EXPECT_EQ(status.tenants.begin()->first, "acme");
  EXPECT_EQ(status.tenants.begin()->second[kTenantSessions], 2u);
  EXPECT_EQ(status.tenants.rbegin()->first, "beta");
  EXPECT_EQ(status.tenants.rbegin()->second[kTenantSessions], 1u);
  manager.close(a2);
  manager.close(a3);
  manager.close(b1);
}

TEST(Quota, AnonymousOpensAreShedFirstAtTheGlobalCap) {
  SessionManager manager(quota_limits(/*max_sessions=*/2, /*per_tenant=*/8));
  const std::string s1 = manager.open(quota_open("acme", 1));
  const std::string s2 = manager.open(quota_open("", 2));
  try {
    (void)manager.open(quota_open("", 3));
    FAIL() << "anonymous open past the cap must shed";
  } catch (const ProtocolError& error) {
    EXPECT_EQ(error.code, ErrorCode::kRetryLater);
  }
  EXPECT_EQ(manager.metrics()[Metric::kShedAnonymous], 1u);
  manager.close(s1);
  manager.close(s2);
}

TEST(Quota, QueuedOpenIsGrantedWhenASlotFrees) {
  SessionManager manager(quota_limits(/*max_sessions=*/1, /*per_tenant=*/4,
                                      /*queue_cap=*/4,
                                      std::chrono::milliseconds(5000)));
  const std::string holder = manager.open(quota_open("acme", 1));
  std::atomic<bool> admitted{false};
  std::thread waiter([&] {  // NOLINT(reprolint-raw-thread)
    const std::string id = manager.open(quota_open("beta", 2));
    admitted.store(true);
    manager.close(id);
  });
  // The waiter parks in the admission queue (never an error), and the
  // freed slot is handed to it, not to a new arrival.
  for (int i = 0; i < 500 && manager.metrics()[Metric::kQueueDepth] == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(manager.metrics()[Metric::kQueueDepth], 1u);
  EXPECT_FALSE(admitted.load());
  manager.close(holder);
  waiter.join();
  EXPECT_TRUE(admitted.load());
  const MetricsSnapshot status = manager.metrics();
  EXPECT_EQ(status[Metric::kQueued], 1u);
  EXPECT_EQ(status[Metric::kGranted], 1u);
  EXPECT_EQ(status[Metric::kTimeouts], 0u);
}

TEST(Quota, QueueTimesOutWithTypedPushbackAndBoundIsEnforced) {
  SessionManager manager(quota_limits(/*max_sessions=*/1, /*per_tenant=*/4,
                                      /*queue_cap=*/1,
                                      std::chrono::milliseconds(5000)));
  const std::string holder = manager.open(quota_open("acme", 1));
  std::thread waiter([&] {  // NOLINT(reprolint-raw-thread)
    try {
      const std::string id = manager.open(quota_open("beta", 2));
      manager.close(id);
    } catch (const ProtocolError&) {
    }
  });
  for (int i = 0; i < 500 && manager.metrics()[Metric::kQueueDepth] == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  // Queue full: the next named open sheds immediately instead of queueing.
  try {
    (void)manager.open(quota_open("gamma", 3));
    FAIL() << "a full admission queue must shed";
  } catch (const ProtocolError& error) {
    EXPECT_EQ(error.code, ErrorCode::kRetryLater);
  }
  EXPECT_EQ(manager.metrics()[Metric::kShedQueueFull], 1u);
  manager.close(holder);
  waiter.join();

  // Timeout path: a short wait expires into retry_later and is counted.
  SessionManager quick(quota_limits(/*max_sessions=*/1, /*per_tenant=*/4,
                                    /*queue_cap=*/4,
                                    std::chrono::milliseconds(30)));
  const std::string busy = quick.open(quota_open("acme", 1));
  try {
    (void)quick.open(quota_open("beta", 2));
    FAIL() << "the queued open must time out";
  } catch (const ProtocolError& error) {
    EXPECT_EQ(error.code, ErrorCode::kRetryLater);
  }
  EXPECT_EQ(quick.metrics()[Metric::kTimeouts], 1u);
  quick.close(busy);
}

TEST(Quota, InflightTellQuotaKeepsTellsCorrectUnderContention) {
  SessionLimits limits = quota_limits(/*max_sessions=*/8, /*per_tenant=*/8);
  limits.quotas.max_inflight_tells_per_tenant = 1;
  SessionManager manager(limits);
  const tuner::ParamSpace space = tiny_space();
  constexpr std::size_t kTells = 40;
  const std::string s1 = manager.open(quota_open("acme", 1, kTells));
  const std::string s2 = manager.open(quota_open("acme", 2, kTells));
  auto drive = [&](const std::string& id, std::uint64_t salt) {
    for (std::size_t i = 0; i < kTells; ++i) {
      const auto config = manager.ask(id);
      if (!config) break;
      while (true) {
        try {
          (void)manager.tell(id, synth_eval(space, *config, salt), i + 1);
          break;
        } catch (const ProtocolError& error) {
          // In-flight quota pushback: nothing was applied, replay the seq.
          ASSERT_EQ(error.code, ErrorCode::kRetryLater);
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
    }
  };
  std::thread t1([&] { drive(s1, 7); });  // NOLINT(reprolint-raw-thread)
  std::thread t2([&] { drive(s2, 9); });  // NOLINT(reprolint-raw-thread)
  t1.join();
  t2.join();
  // Pushback must never lose or double-apply a tell: both sessions ran
  // their full budget exactly once per seq.
  const MetricsSnapshot status = manager.metrics();
  EXPECT_EQ(status[Metric::kTells], 2 * kTells);
  EXPECT_EQ(status[Metric::kDuplicateTells], 0u);
  manager.close(s1);
  manager.close(s2);
}

TEST(Quota, WireTenantRidesHelloAndCannotBeSpoofedPerOpen) {
  ServerConfig config;
  config.limits = quota_limits(/*max_sessions=*/8, /*per_tenant=*/2);
  TuneServer server(config);
  server.start();

  ClientConfig acme_config = service_test::client_config(server.port(), "acme-cli");
  acme_config.tenant = "acme";
  Client acme(acme_config);
  // The open's own tenant field is overwritten by the connection identity:
  // quota identity belongs to the authenticated link.
  const std::string id = acme.open(quota_open("spoofed", 1));
  (void)acme.open(quota_open("", 2));
  try {
    (void)acme.open(quota_open("", 3));
    FAIL() << "the acme connection holds 2 sessions; a third must shed";
  } catch (const ProtocolError& error) {
    EXPECT_EQ(error.code, ErrorCode::kRetryLater);
    EXPECT_GT(error.retry_after_ms, 0u);
  }

  const Json status = acme.status();
  const Json* quotas = status.find("quotas");
  ASSERT_NE(quotas, nullptr);
  EXPECT_TRUE(quotas->find("enabled")->as_bool());
  EXPECT_EQ(quotas->find("shed_over_quota")->as_uint64(), 1u);
  const Json* tenants = quotas->find("tenants");
  ASSERT_NE(tenants, nullptr);
  ASSERT_EQ(tenants->as_array().size(), 1u);
  const Json& row = tenants->as_array()[0];
  EXPECT_EQ(row.find("tenant")->as_string(), "acme");
  EXPECT_EQ(row.find("sessions")->as_uint64(), 2u);

  // A tenant-less connection is anonymous — unquota'd until the cap, and
  // invisible in the tenant rollup.
  Client anon(service_test::client_config(server.port(), "anon-cli"));
  const std::string anon_id = anon.open(quota_open("", 4));
  anon.close_session(anon_id);
  acme.close_session(id);
  server.stop();
}

}  // namespace
}  // namespace repro::service
