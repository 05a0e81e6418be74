// Race-stress tests for repro::ThreadPool (run under the `tsan` preset to
// surface data races; they must also pass — fast — in every other build).
//
// The pool's contract under concurrency: tasks submitted from any number of
// threads all run exactly once; destruction drains the queue; parallel_for
// is safe to call from several driver threads at once and from inside a
// worker (inline fallback); its claimers never touch `body` once the shared
// cursor is exhausted, and the caller returns — or rethrows — only after
// every claimer has finished.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"

namespace {

using repro::ThreadPool;

TEST(RaceThreadPool, ConcurrentSubmittersAllTasksRunOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kDrivers = 4;
  constexpr std::size_t kTasksPerDriver = 200;
  std::atomic<std::size_t> executed{0};

  std::vector<std::thread> drivers;
  drivers.reserve(kDrivers);
  for (std::size_t d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&pool, &executed] {
      std::vector<std::future<void>> futures;
      futures.reserve(kTasksPerDriver);
      for (std::size_t i = 0; i < kTasksPerDriver; ++i) {
        futures.push_back(pool.submit(
            [&executed] { executed.fetch_add(1, std::memory_order_relaxed); }));
      }
      for (auto& future : futures) future.get();
    });
  }
  for (auto& driver : drivers) driver.join();
  EXPECT_EQ(executed.load(), kDrivers * kTasksPerDriver);
}

TEST(RaceThreadPool, DestructionDrainsQueuedBatch) {
  std::atomic<std::size_t> executed{0};
  constexpr std::size_t kTasks = 500;
  {
    ThreadPool pool(2);
    std::vector<std::function<void()>> batch;
    batch.reserve(kTasks);
    for (std::size_t i = 0; i < kTasks; ++i) {
      batch.emplace_back(
          [&executed] { executed.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.submit_batch(std::move(batch));
    // Destructor runs here: shutdown must not drop queued tasks.
  }
  EXPECT_EQ(executed.load(), kTasks);
}

TEST(RaceThreadPool, ParallelForFromConcurrentDrivers) {
  ThreadPool pool(4);
  constexpr std::size_t kDrivers = 3;
  constexpr std::size_t kItems = 512;
  std::vector<std::vector<int>> buffers(kDrivers, std::vector<int>(kItems, 0));

  std::vector<std::thread> drivers;
  drivers.reserve(kDrivers);
  for (std::size_t d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&pool, &buffers, d] {
      repro::parallel_for(pool, 0, kItems, [&buffers, d](std::size_t i) {
        buffers[d][i] += static_cast<int>(i % 7) + 1;
      });
    });
  }
  for (auto& driver : drivers) driver.join();
  for (std::size_t d = 0; d < kDrivers; ++d) {
    long long sum = std::accumulate(buffers[d].begin(), buffers[d].end(), 0LL);
    long long expect = 0;
    for (std::size_t i = 0; i < kItems; ++i) expect += static_cast<int>(i % 7) + 1;
    EXPECT_EQ(sum, expect) << "driver " << d;
  }
}

TEST(RaceThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(3);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 64;
  std::vector<std::atomic<std::size_t>> counts(kOuter);
  repro::parallel_for(pool, 0, kOuter, [&](std::size_t o) {
    // Nested call from a worker: must degrade to the inline loop rather
    // than deadlock the fully-occupied pool.
    repro::parallel_for(pool, 0, kInner, [&counts, o](std::size_t) {
      counts[o].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (std::size_t o = 0; o < kOuter; ++o) EXPECT_EQ(counts[o].load(), kInner);
}

TEST(RaceThreadPool, ExceptionFromChunkPropagatesOnce) {
  ThreadPool pool(4);
  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(
      repro::parallel_for(pool, 0, 256,
                          [&ran](std::size_t i) {
                            ran.fetch_add(1, std::memory_order_relaxed);
                            if (i == 100) throw std::runtime_error("boom");
                          }),
      std::runtime_error);
  EXPECT_GE(ran.load(), 1u);
}

TEST(RaceThreadPool, ExceptionMidClaimWaitsForLiveClaimers) {
  // Index 100 throws while the other claimers are inside `body`. The caller
  // must rethrow only after they have all left it, every block but the
  // throwing one must still run exactly once, and the rest of the throwing
  // block (101..103 at grain 8) is abandoned.
  ThreadPool pool(4);
  constexpr std::size_t kItems = 256;
  constexpr std::size_t kGrain = 8;
  constexpr std::size_t kThrowAt = 100;
  std::vector<std::atomic<int>> hits(kItems);
  std::atomic<int> inside{0};
  std::atomic<bool> threw_beside_live_claimer{false};
  EXPECT_THROW(
      repro::parallel_for(
          pool, 0, kItems,
          [&](std::size_t i) {
            inside.fetch_add(1);
            hits[i].fetch_add(1);
            if (i == kThrowAt) {
              // Throw only once another claimer is live (bounded wait).
              const auto deadline =
                  std::chrono::steady_clock::now() + std::chrono::seconds(5);
              while (inside.load() < 2 && std::chrono::steady_clock::now() < deadline) {
                std::this_thread::yield();
              }
              threw_beside_live_claimer.store(inside.load() >= 2);
              inside.fetch_sub(1);
              throw std::runtime_error("boom");
            }
            std::this_thread::sleep_for(std::chrono::microseconds(50));
            inside.fetch_sub(1);
          },
          kGrain),
      std::runtime_error);
  EXPECT_EQ(inside.load(), 0) << "a claimer was still inside body after the rethrow";
  EXPECT_TRUE(threw_beside_live_claimer.load());
  const std::size_t block_end = (kThrowAt / kGrain + 1) * kGrain;
  for (std::size_t i = 0; i < kItems; ++i) {
    const int expected = (i > kThrowAt && i < block_end) ? 0 : 1;
    EXPECT_EQ(hits[i].load(), expected) << "index " << i;
  }
}

TEST(RaceThreadPool, LateClaimerDoesNotTouchBody) {
  // One of the two workers is parked, so the other runs both claimers back
  // to back: the first drains the whole range, the second starts with the
  // cursor already exhausted and must exit without calling `body`.
  ThreadPool pool(2);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::atomic<bool> parked{false};
  std::future<void> blocker = pool.submit([&parked, gate] {
    parked.store(true);
    gate.wait();
  });
  while (!parked.load()) std::this_thread::yield();

  constexpr std::size_t kItems = 40;
  std::vector<int> hits(kItems, 0);  // one thread writes, the caller reads
  std::atomic<std::size_t> calls{0};
  std::atomic<std::size_t> out_of_range{0};
  repro::parallel_for(
      pool, 0, kItems,
      [&](std::size_t i) {
        calls.fetch_add(1);
        if (i >= kItems) {
          out_of_range.fetch_add(1);
          return;
        }
        ++hits[i];
      },
      4);
  release.set_value();
  blocker.get();

  EXPECT_EQ(calls.load(), kItems);
  EXPECT_EQ(out_of_range.load(), 0u);
  for (std::size_t i = 0; i < kItems; ++i) EXPECT_EQ(hits[i], 1) << "index " << i;
}

}  // namespace
