// Topology-level chaos against the real binaries: a sharded cluster
// (tuned primaries + hot standbys + tunelb) must survive whole-process
// faults — SIGKILL of a primary mid-campaign (headline: the full remote
// study stays byte-identical across the failover), a SIGSTOPped (slow /
// partitioned) shard being probed down and recovering on SIGCONT, and
// client-side endpoint-list failover.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "service/client.hpp"
#include "tests/cluster/cluster_test_util.hpp"

#ifndef REPRO_TUNED_BIN
#error "REPRO_TUNED_BIN must point at the tuned executable"
#endif
#ifndef REPRO_TUNE_CLIENT_BIN
#error "REPRO_TUNE_CLIENT_BIN must point at the tune_client executable"
#endif
#ifndef REPRO_TUNELB_BIN
#error "REPRO_TUNELB_BIN must point at the tunelb executable"
#endif

namespace repro::service {
namespace {

using cluster_test::Proc;
using cluster_test::read_file;
using cluster_test::resilient_config;
using cluster_test::run;
using cluster_test::spawn;

/// Wait until the router reports `health` for shard `index` (poll via the
/// aggregated status op). Returns false on timeout.
bool wait_for_health(std::uint16_t router_port, std::size_t index,
                     const std::string& health,
                     std::chrono::milliseconds budget) {
  // Poll deadline bookkeeping; never feeds tuning results.
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    try {
      Client client(resilient_config(router_port));
      const Json status = client.status();
      const auto& shards = status.find("shards")->as_array();
      if (index < shards.size() &&
          shards[index].find("health")->as_string() == health)
        return true;
    } catch (const std::exception&) {
      // router busy/unreachable this instant; keep polling
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return false;
}

// The headline drill. Baseline: the full five-algorithm remote study
// against a plain single daemon. Chaos run: the same study through
// tunelb -> (primary shipping to hot standby); the primary is SIGKILL'd
// mid-campaign and never restarted, the router promotes the standby, and
// the campaign CSV must still come out byte-identical — acknowledged
// tells survive the murder of the process that acknowledged them.
TEST(ClusterChaos, FullRemoteStudyByteIdenticalAcrossMidCampaignShardKill) {
  const test_util::ScratchDir scratch("repro_cluster");
  const std::string dir = scratch.path();
  const std::vector<std::string> study = {
      REPRO_TUNE_CLIENT_BIN, "--benchmark", "mandelbrot", "--arch", "rtxtitan",
      "--budget",            "12",          "--seed",     "2022",   "--retries",
      "10"};

  // Uninterrupted baseline on a plain daemon.
  {
    Proc daemon({REPRO_TUNED_BIN, "--port", "0", "--state-dir", dir + "/plain"},
                dir + "/plain.log");
    ASSERT_NE(daemon.port, 0);
    std::vector<std::string> argv = study;
    argv.insert(argv.end(), {"--port", std::to_string(daemon.port), "--save-csv",
                             dir + "/full.csv"});
    ASSERT_EQ(run(argv, dir + "/full.out"), 0) << read_file(dir + "/full.out");
  }

  // One shard: primary ships its WAL to a hot standby; tunelb fronts it.
  Proc standby({REPRO_TUNED_BIN, "--port", "0", "--standby", "--state-dir",
                dir + "/standby"},
               dir + "/standby.log");
  ASSERT_NE(standby.port, 0);
  Proc primary({REPRO_TUNED_BIN, "--port", "0", "--state-dir", dir + "/primary",
                "--ship-to", std::to_string(standby.port)},
               dir + "/primary.log");
  ASSERT_NE(primary.port, 0);
  Proc router({REPRO_TUNELB_BIN, "--port", "0", "--shards",
               std::to_string(primary.port) + "/" + std::to_string(standby.port),
               "--probe-interval-ms", "200", "--probe-timeout-ms", "500"},
              dir + "/router.log");
  ASSERT_NE(router.port, 0);

  std::vector<std::string> argv = study;
  argv.insert(argv.end(), {"--port", std::to_string(router.port), "--save-csv",
                           dir + "/part.csv"});
  const pid_t campaign = spawn(argv, dir + "/part.out");
  ASSERT_GT(campaign, 0);

  // Mid-campaign = a few tells applied out of the study's 60 (5 algorithms
  // x budget 12). The router's aggregated `tells` counter is the only
  // signal fine-grained enough: the whole synthetic study runs in about a
  // second, so polling the CSV races campaign completion.
  bool mid_campaign = false;
  {
    Client probe(resilient_config(router.port));
    for (int i = 0; i < 3000; ++i) {
      try {
        const Json status = probe.status();
        const Json* tells = status.find("tells");
        if (tells != nullptr && tells->is_number() && tells->as_uint64() >= 3) {
          mid_campaign = true;
          break;
        }
      } catch (const std::exception&) {
        // router briefly busy; keep polling
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ASSERT_TRUE(mid_campaign) << read_file(dir + "/part.out");
  primary.kill9();

  int status = 0;
  (void)::waitpid(campaign, &status, 0);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << read_file(dir + "/part.out");

  EXPECT_EQ(read_file(dir + "/part.csv"), read_file(dir + "/full.csv"))
      << "the study diverged across a mid-campaign shard kill";

  // The router must have failed the shard over exactly once, onto the
  // standby's endpoint.
  Client probe(resilient_config(router.port));
  const Json router_status = probe.status();
  const auto& shards = router_status.find("shards")->as_array();
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_EQ(shards[0].find("promotions")->as_uint64(), 1u);
  EXPECT_EQ(shards[0].find("endpoint")->as_string(),
            "127.0.0.1:" + std::to_string(standby.port));
}

TEST(ClusterChaos, SlowShardIsProbedDownAndRecoversOnResume) {
  const test_util::ScratchDir scratch("repro_cluster");
  const std::string dir = scratch.path();
  Proc shard0({REPRO_TUNED_BIN, "--port", "0"}, dir + "/shard0.log");
  Proc shard1({REPRO_TUNED_BIN, "--port", "0"}, dir + "/shard1.log");
  ASSERT_NE(shard0.port, 0);
  ASSERT_NE(shard1.port, 0);
  Proc router({REPRO_TUNELB_BIN, "--port", "0", "--shards",
               std::to_string(shard0.port) + "," + std::to_string(shard1.port),
               "--probe-interval-ms", "100", "--probe-timeout-ms", "300",
               "--probe-failures", "2"},
              dir + "/router.log");
  ASSERT_NE(router.port, 0);
  ASSERT_TRUE(wait_for_health(router.port, 1, "up", std::chrono::seconds(10)));

  // A SIGSTOPped shard keeps accepting TCP (the kernel does) but answers
  // nothing — the partition/slow-shard case only a bounded probe catches.
  shard1.signal(SIGSTOP);
  ASSERT_TRUE(wait_for_health(router.port, 1, "down", std::chrono::seconds(15)));

  // Placement skips the down shard: every new session lands on shard 0.
  Client client(resilient_config(router.port));
  for (int i = 0; i < 6; ++i) {
    const std::string id =
        client.open(cluster_test::tiny_open("rs", 4, 60 + i),
                    "slow#" + std::to_string(i));
    EXPECT_EQ(id.rfind("0:", 0), 0u) << "placed on a down shard: " << id;
    client.close_session(id);
  }

  shard1.signal(SIGCONT);
  EXPECT_TRUE(wait_for_health(router.port, 1, "up", std::chrono::seconds(15)));
}

TEST(ClusterChaos, EndpointListRidesOverADeadFirstEndpoint) {
  const test_util::ScratchDir scratch("repro_cluster");
  const std::string dir = scratch.path();
  Proc daemon({REPRO_TUNED_BIN, "--port", "0"}, dir + "/tuned.log");
  ASSERT_NE(daemon.port, 0);
  // Port 1 is dead; the deterministic walk must settle on the live daemon.
  const int exit_code = run(
      {REPRO_TUNE_CLIENT_BIN, "--endpoints", "1," + std::to_string(daemon.port),
       "--benchmark", "mandelbrot", "--arch", "rtxtitan", "--algorithms", "rs",
       "--budget", "6", "--seed", "7", "--retries", "3"},
      dir + "/client.out");
  EXPECT_EQ(exit_code, 0) << read_file(dir + "/client.out");
}

}  // namespace
}  // namespace repro::service
