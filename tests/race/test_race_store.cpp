// Race-stress tests for the results store: concurrent appenders, readers
// and exporters over shared tenants must never corrupt the index, lose the
// first-value-wins guarantee, or let the on-disk log drift out of replay
// agreement with the live in-memory state. Values are a pure function of
// the config (mirroring the production contract of deterministic
// per-configuration measurements), so every surviving record is checkable
// after the storm. Runs fast in ordinary builds; the `tsan` preset is where
// the lock discipline is actually proven.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "store/results_store.hpp"
#include "tests/common/scratch_dir.hpp"

namespace repro::store {
namespace {

StoreKey key_for(int tenant) {
  return StoreKey{"bench" + std::to_string(tenant), "arch",
                  "0123456789abcdef"};
}

double value_for(int tenant, int i) {
  std::uint64_t state = seed_combine(static_cast<std::uint64_t>(tenant),
                                     static_cast<std::uint64_t>(i) + 1);
  return 1.0 + static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

TEST(RaceStore, ConcurrentAppendsQueriesAndExportsStayConsistent) {
  StoreOptions options;
  options.capacity = 0;
  options.shards = 4;
  ResultsStore store(options);
  store.load();

  constexpr std::size_t kWriters = 4;
  constexpr int kTenants = 3;
  constexpr int kRecords = 200;

  std::vector<std::thread> threads;
  threads.reserve(kWriters + 2);
  for (std::size_t t = 0; t < kWriters; ++t) {
    threads.emplace_back([&store, t] {
      // Every writer walks every (tenant, i) pair from a different offset:
      // most appends collide with another writer's and must dedup cleanly.
      for (int step = 0; step < kTenants * kRecords; ++step) {
        const int flat = (step + static_cast<int>(t) * 271) % (kTenants * kRecords);
        const int tenant = flat / kRecords;
        const int i = flat % kRecords;
        (void)store.append(key_for(tenant), {i / 100, i % 100, tenant},
                           value_for(tenant, i), true);
      }
    });
  }
  // Readers run concurrently: queries, stats, exports and digests must be
  // internally consistent snapshots, never crashes or torn reads.
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&store, r] {
      for (int round = 0; round < 50; ++round) {
        const std::vector<StoreRecord> rows = store.query(key_for(round % kTenants));
        for (const StoreRecord& row : rows) {
          ASSERT_EQ(row.config.size(), 3u);
          const int tenant = row.config[2];
          const int i = row.config[0] * 100 + row.config[1];
          ASSERT_EQ(row.value, value_for(tenant, i));
        }
        (void)store.stats();
        if (r == 0) (void)store.digest();
        (void)store.export_tenants("bench" + std::to_string(round % kTenants));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.records, static_cast<std::size_t>(kTenants * kRecords));
  EXPECT_EQ(stats.tenants, static_cast<std::size_t>(kTenants));
  EXPECT_EQ(stats.appends, static_cast<std::uint64_t>(kTenants * kRecords));
  EXPECT_EQ(stats.duplicates,
            static_cast<std::uint64_t>((kWriters - 1) * kTenants * kRecords));
  for (int tenant = 0; tenant < kTenants; ++tenant) {
    const std::vector<StoreRecord> rows = store.query(key_for(tenant));
    ASSERT_EQ(rows.size(), static_cast<std::size_t>(kRecords)) << tenant;
    for (const StoreRecord& row : rows) {
      const int i = row.config[0] * 100 + row.config[1];
      EXPECT_EQ(row.value, value_for(tenant, i));
    }
  }
}

TEST(RaceStore, ConcurrentPersistentAppendsReplayToTheSameDigest) {
  // Whatever interleaving the writers produce, the log must record it in
  // exactly the order the index applied it: a reload replays the log and
  // must land on the identical digest.
  const test_util::ScratchDir scratch("repro_store_race");
  const std::string dir = scratch.path();
  StoreOptions options;
  options.dir = dir;
  options.fsync_appends = false;  // keep the storm fast; ordering is the point
  std::uint64_t live_digest = 0;
  {
    ResultsStore store(options);
    store.load();
    constexpr std::size_t kWriters = 4;
    constexpr int kRecords = 150;
    std::vector<std::thread> threads;
    threads.reserve(kWriters);
    for (std::size_t t = 0; t < kWriters; ++t) {
      threads.emplace_back([&store, t] {
        for (int i = 0; i < kRecords; ++i) {
          const int flat = (i + static_cast<int>(t) * 37) % kRecords;
          (void)store.append(key_for(0), {flat / 100, flat % 100, 0},
                             value_for(0, flat), true);
        }
      });
    }
    for (auto& thread : threads) thread.join();
    live_digest = store.digest();
  }
  ResultsStore reloaded(options);
  reloaded.load();
  EXPECT_EQ(reloaded.digest(), live_digest);
}

TEST(RaceStore, ConcurrentAppendsUnderCapacityPressureStayBounded) {
  const test_util::ScratchDir scratch("repro_store_race");
  const std::string dir = scratch.path();
  StoreOptions options;
  options.dir = dir;
  options.capacity = 64;
  options.compact_slack = 32;
  options.fsync_appends = false;
  std::uint64_t live_digest = 0;
  {
    ResultsStore store(options);
    store.load();
    constexpr std::size_t kWriters = 4;
    std::vector<std::thread> threads;
    threads.reserve(kWriters);
    for (std::size_t t = 0; t < kWriters; ++t) {
      threads.emplace_back([&store, t] {
        for (int i = 0; i < 200; ++i) {
          const int id = static_cast<int>(t) * 1000 + i;
          (void)store.append(key_for(id % 2), {id / 100, id % 100, id % 2},
                             value_for(id % 2, id), true);
        }
      });
    }
    for (auto& thread : threads) thread.join();
    const StoreStats stats = store.stats();
    EXPECT_EQ(stats.records, 64u);
    EXPECT_GE(stats.evictions, 1u);
    live_digest = store.digest();
  }
  // Eviction + compaction under contention still leaves a log that replays
  // to the live state.
  ResultsStore reloaded(options);
  reloaded.load();
  EXPECT_EQ(reloaded.stats().records, 64u);
  EXPECT_EQ(reloaded.digest(), live_digest);
}

}  // namespace
}  // namespace repro::store
