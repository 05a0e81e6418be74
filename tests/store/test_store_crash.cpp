// Crash-safety drill for the results store: a child process appends records
// and reports each acknowledged append over a pipe; the parent SIGKILLs it
// mid-stream and then reloads the store. Every acknowledged record must
// survive (append() fsyncs before returning), and the torn tail a kill can
// leave behind must be dropped cleanly — across several kill/reload rounds
// into the same directory.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "store/results_store.hpp"
#include "tests/common/scratch_dir.hpp"

namespace repro::store {
namespace {

StoreKey crash_key() { return StoreKey{"crash", "drill", "cccccccccccccccc"}; }

/// Child body: load the store, append forever, ack each durable append by
/// writing its id to the pipe. Never returns.
[[noreturn]] void append_forever(const std::string& dir, int ack_fd, int round) {
  StoreOptions options;
  options.dir = dir;
  ResultsStore store(options);
  store.load();
  for (int i = 0; i < 1000000; ++i) {
    // Unique config per (round, i) so dedup never swallows an append.
    const tuner::Configuration config = {round, i / 100, i % 100};
    (void)store.append(crash_key(), config, 1.0 + i, true);
    // The ack leaves only after append() returned, i.e. after the fsync.
    std::uint32_t id = static_cast<std::uint32_t>(i);
    if (::write(ack_fd, &id, sizeof(id)) != static_cast<ssize_t>(sizeof(id))) break;
  }
  ::_exit(0);
}

TEST(StoreCrash, Sigkill9MidAppendLosesNoAcknowledgedRecord) {
  const test_util::ScratchDir scratch("repro_store_crash");
  const std::string dir = scratch.path();
  // (round, highest acked id) pairs accumulated across kill/reload rounds.
  std::vector<std::pair<int, std::uint32_t>> acked;
  for (int round = 0; round < 4; ++round) {
    int pipe_fds[2];
    ASSERT_EQ(::pipe(pipe_fds), 0);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::close(pipe_fds[0]);
      append_forever(dir, pipe_fds[1], round);
    }
    ::close(pipe_fds[1]);

    // Collect a round-dependent number of acks, then kill without warning —
    // the child is almost certainly inside an append (or its fsync).
    const std::uint32_t target = 30 + static_cast<std::uint32_t>(round) * 17;
    std::uint32_t last = 0;
    std::uint32_t count = 0;
    while (count < target) {
      std::uint32_t id = 0;
      const ssize_t n = ::read(pipe_fds[0], &id, sizeof(id));
      ASSERT_EQ(n, static_cast<ssize_t>(sizeof(id))) << "child died early";
      last = id;
      ++count;
    }
    (void)::kill(pid, SIGKILL);
    (void)::waitpid(pid, nullptr, 0);
    ::close(pipe_fds[0]);
    acked.emplace_back(round, last);

    // Reload in the parent: every acknowledged record of every round so far
    // must be present; a torn unacknowledged tail is allowed and dropped.
    StoreOptions options;
    options.dir = dir;
    ResultsStore store(options);
    ASSERT_NO_THROW(store.load());
    std::set<std::pair<int, int>> present;
    for (const StoreRecord& row : store.query(crash_key())) {
      ASSERT_EQ(row.config.size(), 3u);
      present.emplace(row.config[0], row.config[1] * 100 + row.config[2]);
    }
    for (const auto& [r, high] : acked) {
      for (std::uint32_t i = 0; i <= high; ++i) {
        EXPECT_TRUE(present.count({r, static_cast<int>(i)}) == 1)
            << "round " << r << " record " << i
            << " was acknowledged before the SIGKILL but is missing after reload";
      }
    }
  }
}

TEST(StoreCrash, RecoveredStoreKeepsAcceptingAppendsAfterEveryKill) {
  const test_util::ScratchDir scratch("repro_store_crash");
  const std::string dir = scratch.path();
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(pipe_fds[0]);
    append_forever(dir, pipe_fds[1], 7);
  }
  ::close(pipe_fds[1]);
  std::uint32_t id = 0;
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(::read(pipe_fds[0], &id, sizeof(id)), static_cast<ssize_t>(sizeof(id)));
  }
  (void)::kill(pid, SIGKILL);
  (void)::waitpid(pid, nullptr, 0);
  ::close(pipe_fds[0]);

  StoreOptions options;
  options.dir = dir;
  std::uint64_t digest = 0;
  {
    ResultsStore store(options);
    store.load();
    const std::size_t before = store.stats().records;
    EXPECT_GE(before, 10u);
    // The log was truncated past any torn tail, so appends land cleanly.
    ASSERT_TRUE(store.append(crash_key(), {99, 99, 99}, 5.0, true));
    EXPECT_EQ(store.stats().records, before + 1);
    digest = store.digest();
  }
  ResultsStore reloaded(options);
  reloaded.load();
  EXPECT_EQ(reloaded.digest(), digest);
}

}  // namespace
}  // namespace repro::store
