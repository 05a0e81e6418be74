// Thread pool and parallel_for behaviour: completeness, exception
// propagation, claim-size edge cases, load balancing under skewed
// iteration costs, and future-based task submission.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"

namespace repro {
namespace {

TEST(ThreadPool, SizeDefaultsToAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto future = pool.submit([] { return 7 * 6; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesException) {
  ThreadPool pool(2);
  auto future = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, ManyTasksAllRun) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, 0, hits.size(),
               [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  parallel_for(pool, 5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelFor, SingleElement) {
  ThreadPool pool(2);
  int value = 0;
  parallel_for(pool, 3, 4, [&](std::size_t i) { value = static_cast<int>(i); });
  EXPECT_EQ(value, 3);
}

TEST(ParallelFor, NonZeroBegin) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  parallel_for(pool, 10, 110, [&](std::size_t i) { sum.fetch_add(static_cast<long>(i)); });
  long expected = 0;
  for (long i = 10; i < 110; ++i) expected += i;
  EXPECT_EQ(sum.load(), expected);
}

TEST(ParallelFor, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(pool, 0, 100,
                   [&](std::size_t i) {
                     if (i == 37) throw std::runtime_error("fail at 37");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, ExplicitGrains) {
  ThreadPool pool(4);
  for (std::size_t grain : {0u, 1u, 2u, 7u, 33u, 99u, 100u, 1000u}) {
    std::vector<std::atomic<int>> hits(100);
    parallel_for(pool, 0, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); },
                 grain);
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "grain=" << grain << " i=" << i;
    }
  }
}

TEST(ParallelFor, GlobalPoolOverload) {
  std::atomic<int> counter{0};
  parallel_for(0, 50, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 50);
}

TEST(ParallelFor, MatchesSequentialLoopForEveryGrain) {
  // Slot-indexed writes: the parallel result must equal the sequential loop
  // element for element, independent of the claim size and of which
  // claimer ran which block.
  ThreadPool pool(4);
  const std::size_t n = 257;
  std::vector<double> expected(n);
  for (std::size_t i = 0; i < n; ++i) {
    expected[i] = static_cast<double>(i) * 1.5 - 3.0;
  }
  for (std::size_t grain : {0u, 1u, 3u, 8u, 16u, 64u, 128u, 256u, 257u, 1000u}) {
    std::vector<double> got(n, 0.0);
    parallel_for(
        pool, 0, n, [&](std::size_t i) { got[i] = static_cast<double>(i) * 1.5 - 3.0; },
        grain);
    EXPECT_EQ(got, expected) << "grain=" << grain;
  }
}

TEST(ParallelFor, GrainCapsDispatchForTinyLoops) {
  // With grain >= n the loop must still cover every index (the range fits
  // in one claim, so it runs inline).
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  parallel_for(pool, 0, 5, [&](std::size_t) { counter.fetch_add(1); }, 100);
  EXPECT_EQ(counter.load(), 5);
}

TEST(ParallelFor, SlowFirstItemDoesNotStallTheRest) {
  // Item 0 blocks until every other item has run. A schedule that fixes
  // contiguous ranges per task before anything runs puts items 1..k behind
  // item 0 on the same thread and can never satisfy it; with block claiming
  // the other workers drain the rest of the range while item 0 waits.
  ThreadPool pool(4);
  constexpr std::size_t kItems = 64;
  std::atomic<std::size_t> others_done{0};
  bool item0_saw_all = false;
  parallel_for(pool, 0, kItems, [&](std::size_t i) {
    if (i != 0) {
      others_done.fetch_add(1);
      return;
    }
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (others_done.load() < kItems - 1 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    item0_saw_all = others_done.load() == kItems - 1;
  });
  EXPECT_TRUE(item0_saw_all);
  EXPECT_EQ(others_done.load(), kItems - 1);
}

TEST(ParallelFor, NestedCallDoesNotDeadlock) {
  // A body that itself calls parallel_for on the same pool must complete:
  // the inner call detects it is on a worker thread and runs inline.
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  parallel_for(pool, 0, 8, [&](std::size_t) {
    EXPECT_TRUE(pool.on_worker_thread());
    parallel_for(pool, 0, 8, [&](std::size_t) { counter.fetch_add(1); });
  });
  EXPECT_EQ(counter.load(), 64);
}

TEST(ParallelFor, OnWorkerThreadFalseOnCaller) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.on_worker_thread());
}

TEST(ThreadPool, SubmitBatchRunsEveryTask) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::atomic<int> done{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 64; ++i) {
    tasks.emplace_back([&] {
      counter.fetch_add(1);
      done.fetch_add(1);
    });
  }
  pool.submit_batch(std::move(tasks));
  while (done.load() < 64) std::this_thread::yield();
  EXPECT_EQ(counter.load(), 64);
}

}  // namespace
}  // namespace repro
