// Process-level crash tests against the real binaries: a `tuned` daemon
// SIGKILL'd mid-session must come back (same --state-dir, same port) with
// the session recovered from its WAL, and a resilient client must ride
// through the restart to a result byte-identical to an uninterrupted run.
// Also the campaign-level drill: a tune_client study killed at every cell
// boundary and resumed (--save-csv/--resume/--stop-after) against
// daemon restarts produces a byte-identical campaign CSV.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/client.hpp"
#include "tests/common/scratch_dir.hpp"
#include "tests/service/service_test_util.hpp"
#include "tuner/registry.hpp"

#ifndef REPRO_TUNED_BIN
#error "REPRO_TUNED_BIN must point at the tuned executable"
#endif
#ifndef REPRO_TUNE_CLIENT_BIN
#error "REPRO_TUNE_CLIENT_BIN must point at the tune_client executable"
#endif

namespace repro::service {
namespace {

using service_test::synth_eval;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Spawn a child with stdout+stderr redirected to `out_path`. Returns the
/// child pid (or -1).
pid_t spawn(const std::vector<std::string>& argv, const std::string& out_path) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  const int fd = ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    (void)::dup2(fd, STDOUT_FILENO);
    (void)::dup2(fd, STDERR_FILENO);
    ::close(fd);
  }
  std::vector<char*> args;
  args.reserve(argv.size() + 1);
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  ::execv(args[0], args.data());
  ::_exit(127);
}

/// A `tuned` child process. SIGKILL on destruction unless already reaped.
struct Daemon {
  pid_t pid = -1;
  std::uint16_t port = 0;
  std::string out_path;

  Daemon(const std::string& state_dir, std::uint16_t fixed_port,
         const std::string& log_path)
      : out_path(log_path) {
    pid = spawn({REPRO_TUNED_BIN, "--port", std::to_string(fixed_port),
                 "--state-dir", state_dir},
                out_path);
    if (pid <= 0) return;
    // Wait for the machine-readable ready line (recovery happens first, so
    // this also synchronizes with WAL replay).
    for (int i = 0; i < 500 && port == 0; ++i) {
      const std::string text = read_file(out_path);
      const std::size_t at = text.find("ready port=");
      if (at != std::string::npos) {
        port = static_cast<std::uint16_t>(
            std::stoul(text.substr(at + std::strlen("ready port="))));
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_NE(port, 0) << "tuned did not become ready: " << read_file(out_path);
  }

  void kill9() {
    if (pid <= 0) return;
    (void)::kill(pid, SIGKILL);
    (void)::waitpid(pid, nullptr, 0);
    pid = -1;
  }

  ~Daemon() { kill9(); }
};

/// Run a child to completion and return its exit code (-1 on abnormal exit).
int run(const std::vector<std::string>& argv, const std::string& out_path) {
  const pid_t pid = spawn(argv, out_path);
  if (pid <= 0) return -1;
  int status = 0;
  (void)::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

OpenParams tiny_open(const std::string& algorithm, std::size_t budget,
                     std::uint64_t seed) {
  OpenParams params;
  params.algorithm = algorithm;
  params.budget = budget;
  params.seed = seed;
  params.custom_space = true;
  params.params = {{"a", 1, 8}, {"b", 1, 8}, {"c", 0, 5}};
  return params;
}

ClientConfig resilient_config(std::uint16_t port) {
  ClientConfig config;
  config.port = port;
  config.name = "killtest";
  config.max_retries = 20;
  config.backoff_initial_ms = 25;
  config.backoff_max_ms = 400;
  return config;
}

bool same_result(const tuner::TuneResult& a, const tuner::TuneResult& b) {
  return a.best_config == b.best_config && a.found_valid == b.found_valid &&
         a.evaluations_used == b.evaluations_used &&
         std::memcmp(&a.best_value, &b.best_value, sizeof(double)) == 0;
}

TEST(DaemonKill, Sigkill9MidSessionRecoversByteIdenticalForEveryAlgorithm) {
  const tuner::ParamSpace space =
      tiny_open("rs", 1, 1).make_space();  // shared by all cells
  for (const std::string& algorithm : tuner::paper_algorithms()) {
    const test_util::ScratchDir scratch("repro_chaos");
    const std::string dir = scratch.path();
    const OpenParams params = tiny_open(algorithm, 16, 42);
    auto daemon = std::make_unique<Daemon>(dir, 0, dir + "/tuned1.log");
    const std::uint16_t port = daemon->port;

    // Uninterrupted baseline against the same daemon.
    Client clean(resilient_config(port));
    const Client::RemoteResult baseline =
        clean.remote_minimize(params, [&space](const tuner::Configuration& c) {
          return synth_eval(space, c, 13);
        });
    clean.disconnect();

    // Interrupted run: open with a token, apply 5 tells, SIGKILL the
    // daemon, restart it on the same port over the same state dir, and
    // let the client's retry machinery carry the session to completion.
    Client client(resilient_config(port));
    const std::string id = client.open(params, "kill#" + algorithm);
    for (int i = 0; i < 5; ++i) {
      const std::optional<tuner::Configuration> config = client.ask(id);
      ASSERT_TRUE(config.has_value());
      (void)client.tell(id, synth_eval(space, *config, 13));
    }
    daemon->kill9();
    daemon = std::make_unique<Daemon>(dir, port, dir + "/tuned2.log");
    ASSERT_EQ(daemon->port, port);

    tuner::TuneResult resumed;
    while (const std::optional<tuner::Configuration> config = client.ask(id)) {
      (void)client.tell(id, synth_eval(space, *config, 13));
    }
    resumed = client.result(id).result;
    client.close_session(id);
    EXPECT_GT(client.reconnects(), 0u) << algorithm;
    EXPECT_TRUE(same_result(baseline.result, resumed))
        << algorithm << " diverged across a daemon SIGKILL";
    client.disconnect();
  }
}

TEST(DaemonKill, CampaignKilledAtEveryCellBoundaryRecoversTheSameCsv) {
  const test_util::ScratchDir scratch("repro_chaos");
  const std::string dir = scratch.path();
  const std::vector<std::string> common = {
      REPRO_TUNE_CLIENT_BIN, "--benchmark", "mandelbrot", "--arch", "rtxtitan",
      "--budget",            "12",          "--seed",     "2022",   "--retries",
      "3"};

  // One-shot baseline campaign (all five paper cells).
  {
    Daemon daemon(dir + "/state", 0, dir + "/tuned_full.log");
    std::vector<std::string> argv = common;
    argv.insert(argv.end(), {"--port", std::to_string(daemon.port), "--save-csv",
                             dir + "/full.csv"});
    ASSERT_EQ(run(argv, dir + "/full.out"), 0) << read_file(dir + "/full.out");
  }

  // Interrupted campaign: the client exits after every single cell
  // (--stop-after 1 == a kill at the cell boundary) and the daemon is
  // SIGKILL'd and restarted between cells. --resume must stitch the exact
  // same CSV back together.
  for (int cell = 0; cell < 5; ++cell) {
    // Per-cell log path: the ready-line parser must never read a stale
    // "ready port=" left by the previous incarnation.
    Daemon daemon(dir + "/state", 0,
                  dir + "/tuned_part" + std::to_string(cell) + ".log");
    std::vector<std::string> argv = common;
    argv.insert(argv.end(), {"--port", std::to_string(daemon.port), "--save-csv",
                             dir + "/part.csv", "--resume", "--stop-after", "1"});
    ASSERT_EQ(run(argv, dir + "/part.out"), 0)
        << "cell " << cell << ": " << read_file(dir + "/part.out");
    daemon.kill9();
  }
  EXPECT_EQ(read_file(dir + "/part.csv"), read_file(dir + "/full.csv"));
}

}  // namespace
}  // namespace repro::service
