#pragma once
// Shared fixtures for the cluster suite: spawning real `tuned` / `tunelb`
// child processes (with ready-line port scraping), self-removing state dirs
// (tests/common/scratch_dir.hpp), and the byte-identity comparator the
// failover tests are built around.
//
// Process helpers live here (not in service_test_util.hpp) because only
// the cluster and chaos suites are allowed to fork — the service suite
// stays in-process by design.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/client.hpp"
#include "service/protocol.hpp"
#include "tests/common/scratch_dir.hpp"
#include "tests/service/service_test_util.hpp"

namespace repro::cluster_test {

inline std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Spawn a child with stdout+stderr redirected to `out_path`.
inline pid_t spawn(const std::vector<std::string>& argv,
                   const std::string& out_path) {
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

/// Run a child to completion; exit code, or -1 on abnormal exit.
inline int run(const std::vector<std::string>& argv, const std::string& out_path) {
  const pid_t pid = spawn(argv, out_path);
  if (pid <= 0) return -1;
  int status = 0;
  (void)::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// A daemon child (tuned or tunelb). Scrapes the machine-readable
/// "ready port=" line; SIGKILL on destruction unless already reaped.
struct Proc {
  pid_t pid = -1;
  std::uint16_t port = 0;
  std::string out_path;

  Proc(const std::vector<std::string>& argv, const std::string& log_path)
      : out_path(log_path) {
    pid = spawn(argv, out_path);
    if (pid <= 0) return;
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
    EXPECT_NE(port, 0) << argv[0]
                       << " did not become ready: " << read_file(out_path);
  }

  void kill9() {
    if (pid <= 0) return;
    (void)::kill(pid, SIGKILL);
    (void)::waitpid(pid, nullptr, 0);
    pid = -1;
  }

  void signal(int signo) const {
    if (pid > 0) (void)::kill(pid, signo);
  }

  ~Proc() { kill9(); }
};

inline service::OpenParams tiny_open(const std::string& algorithm,
                                     std::size_t budget, std::uint64_t seed) {
  service::OpenParams params;
  params.algorithm = algorithm;
  params.budget = budget;
  params.seed = seed;
  params.custom_space = true;
  params.params = {{"a", 1, 8}, {"b", 1, 8}, {"c", 0, 5}};
  return params;
}

inline service::ClientConfig resilient_config(std::uint16_t port) {
  service::ClientConfig config;
  config.port = port;
  config.name = "clustertest";
  config.max_retries = 20;
  config.backoff_initial_ms = 25;
  config.backoff_max_ms = 400;
  return config;
}

inline bool same_result(const tuner::TuneResult& a, const tuner::TuneResult& b) {
  return a.best_config == b.best_config && a.found_valid == b.found_valid &&
         a.evaluations_used == b.evaluations_used &&
         std::memcmp(&a.best_value, &b.best_value, sizeof(double)) == 0;
}

}  // namespace repro::cluster_test
