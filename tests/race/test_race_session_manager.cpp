// Race-stress tests for the service SessionManager: idle eviction racing
// live open/ask/tell/close traffic, and the session-limit check racing
// concurrent opens. Every operation either succeeds or surfaces a typed
// ProtocolError — never a crash, hang, or corrupted counter. Run under the
// `tsan` preset to surface lock-discipline bugs.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "service/session_manager.hpp"
#include "tests/service/service_test_util.hpp"

namespace repro::service {
namespace {

using service_test::synth_eval;
using service_test::tiny_space;

OpenParams tiny_open(std::uint64_t seed, std::size_t budget) {
  OpenParams params;
  params.algorithm = "rs";
  params.budget = budget;
  params.seed = seed;
  params.custom_space = true;
  params.params = {{"a", 1, 8}, {"b", 1, 8}, {"c", 0, 5}};
  return params;
}

TEST(RaceSessionManager, EvictionRacesLiveTraffic) {
  SessionLimits limits;
  limits.max_sessions = 64;
  limits.idle_timeout = std::chrono::milliseconds(1);  // evict aggressively
  SessionManager manager(limits);
  const tuner::ParamSpace space = tiny_space();
  const std::uint64_t salt = seed_from_string("race-evict");

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> completed{0};
  std::atomic<std::size_t> interrupted{0};

  // Eviction thread: hammers evict_idle() with a 1ms idle budget, so
  // sessions paused between driver steps routinely get ripped away.
  std::thread evictor([&manager, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      manager.evict_idle();
      std::this_thread::yield();
    }
  });

  constexpr std::size_t kDrivers = 3;
  constexpr std::size_t kRoundsPerDriver = 20;
  std::vector<std::thread> drivers;
  drivers.reserve(kDrivers);
  for (std::size_t d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&, d] {
      for (std::size_t round = 0; round < kRoundsPerDriver; ++round) {
        try {
          const std::string id =
              manager.open(tiny_open(seed_combine(d, round), /*budget=*/8));
          while (auto config = manager.ask(id)) {
            manager.tell(id, synth_eval(space, *config, salt));
            if (round % 4 == 1) std::this_thread::yield();  // widen the window
          }
          (void)manager.result(id);
          manager.close(id);
          completed.fetch_add(1, std::memory_order_relaxed);
        } catch (const ProtocolError&) {
          // Session was evicted (or closed) under us — a legal outcome of
          // the race; the driver just moves on to its next session.
          interrupted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& driver : drivers) driver.join();
  stop.store(true, std::memory_order_relaxed);
  evictor.join();

  EXPECT_EQ(completed.load() + interrupted.load(), kDrivers * kRoundsPerDriver);
  const MetricsSnapshot report = manager.metrics();
  // Conservation: every opened session is live, closed, or evicted.
  EXPECT_EQ(report[Metric::kOpened], report[Metric::kLiveSessions] + report[Metric::kClosed] + report[Metric::kEvicted]);
  manager.cancel_all();
  EXPECT_EQ(manager.live(), 0u);
}

TEST(RaceSessionManager, ConcurrentOpensRespectSessionLimit) {
  SessionLimits limits;
  limits.max_sessions = 4;
  limits.idle_timeout = std::chrono::milliseconds(0);  // disable eviction
  SessionManager manager(limits);

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kAttemptsPerThread = 12;
  std::atomic<std::size_t> accepted{0};
  std::atomic<std::size_t> rejected{0};

  std::vector<std::thread> openers;
  openers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    openers.emplace_back([&, t] {
      for (std::size_t i = 0; i < kAttemptsPerThread; ++i) {
        try {
          const std::string id =
              manager.open(tiny_open(seed_combine(t, i), /*budget=*/4));
          accepted.fetch_add(1, std::memory_order_relaxed);
          EXPECT_LE(manager.live(), limits.max_sessions);
          manager.close(id);
        } catch (const ProtocolError& error) {
          EXPECT_EQ(error.code, ErrorCode::kSessionLimit);
          rejected.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& opener : openers) opener.join();

  EXPECT_EQ(accepted.load() + rejected.load(), kThreads * kAttemptsPerThread);
  EXPECT_EQ(manager.live(), 0u);
  const MetricsSnapshot report = manager.metrics();
  EXPECT_EQ(report[Metric::kOpened], accepted.load());
  EXPECT_EQ(report[Metric::kClosed], accepted.load());
}

TEST(RaceSessionManager, CancelAllRacesBlockedResult) {
  // result() blocks until the search finishes; cancel_all() must eject the
  // blocked caller with kSessionClosed instead of deadlocking.
  SessionManager manager;
  const std::string id = manager.open(tiny_open(42, /*budget=*/1000));

  std::atomic<bool> ejected{false};
  std::thread caller([&manager, &id, &ejected] {
    try {
      (void)manager.result(id);  // parks: the session never gets a tell
    } catch (const ProtocolError& error) {
      // kUnknownSession covers the (rare) schedule where cancel_all() wins
      // the race and removes the session before result() even looks it up.
      EXPECT_TRUE(error.code == ErrorCode::kSessionClosed ||
                  error.code == ErrorCode::kUnknownSession)
          << static_cast<int>(error.code);
      ejected.store(true, std::memory_order_relaxed);
    }
  });
  // Give the caller a chance to park in result() before cancelling.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  manager.cancel_all();
  caller.join();
  EXPECT_TRUE(ejected.load());
}

}  // namespace
}  // namespace repro::service
