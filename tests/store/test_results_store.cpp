// ResultsStore semantics: first-value-wins dedup, typed incompatibility
// rejection, deterministic FIFO eviction, persistence round-trips (live,
// recovered and compacted stores must agree on digest()), the session-WAL
// torn-tail rules, and the export/import surface.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "store/results_store.hpp"
#include "tests/common/scratch_dir.hpp"

namespace repro::store {
namespace {

StoreKey key_a() { return StoreKey{"mandelbrot", "rtxtitan", "aaaaaaaaaaaaaaaa"}; }
StoreKey key_b() { return StoreKey{"sobel", "gtx980", "bbbbbbbbbbbbbbbb"}; }

StoreOptions memory_options() {
  StoreOptions options;
  options.capacity = 0;
  return options;
}

TEST(ResultsStore, AppendAndQueryRoundtripInInsertionOrder) {
  ResultsStore store(memory_options());
  store.load();
  EXPECT_TRUE(store.append(key_a(), {1, 2, 3}, 10.0, true));
  EXPECT_TRUE(store.append(key_a(), {4, 5, 6}, 20.0, true));
  EXPECT_TRUE(store.append(key_a(), {7, 8, 9}, std::nan(""), false));
  const std::vector<StoreRecord> rows = store.query(key_a());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].config, (tuner::Configuration{1, 2, 3}));
  EXPECT_EQ(rows[0].value, 10.0);
  EXPECT_TRUE(rows[0].valid);
  EXPECT_EQ(rows[1].config, (tuner::Configuration{4, 5, 6}));
  EXPECT_TRUE(std::isnan(rows[2].value));
  EXPECT_FALSE(rows[2].valid);
  EXPECT_EQ(store.tenant_rows(key_a()), 3u);
  EXPECT_EQ(store.tenant_rows(key_b()), 0u);
  EXPECT_EQ(store.tenant_count(), 1u);
}

TEST(ResultsStore, QueryMaxRowsKeepsTheMostRecentTail) {
  ResultsStore store(memory_options());
  store.load();
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(store.append(key_a(), {i, i, i}, i, true));
  const std::vector<StoreRecord> tail = store.query(key_a(), 2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].config, (tuner::Configuration{3, 3, 3}));
  EXPECT_EQ(tail[1].config, (tuner::Configuration{4, 4, 4}));
}

TEST(ResultsStore, FirstValueWinsOnDuplicateConfigs) {
  ResultsStore store(memory_options());
  store.load();
  EXPECT_TRUE(store.append(key_a(), {1, 2, 3}, 10.0, true));
  // Re-appending the same config (a WAL replay, a ship duplicate, a repeat
  // measurement) is a counted no-op: the stored value never changes.
  EXPECT_FALSE(store.append(key_a(), {1, 2, 3}, 99.0, true));
  const std::vector<StoreRecord> rows = store.query(key_a());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].value, 10.0);
  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.appends, 1u);
  EXPECT_EQ(stats.duplicates, 1u);
}

TEST(ResultsStore, DimensionMismatchThrowsTypedError) {
  ResultsStore store(memory_options());
  store.load();
  ASSERT_TRUE(store.append(key_a(), {1, 2, 3}, 10.0, true));
  EXPECT_THROW((void)store.append(key_a(), {1, 2}, 5.0, true), IncompatibleSpaceError);
  // The typed error is also a StoreError (one catch site covers both).
  try {
    (void)store.append(key_a(), {9, 9, 9, 9}, 5.0, true);
    FAIL() << "4-dim append into a 3-dim tenant must throw";
  } catch (const StoreError& error) {
    EXPECT_NE(std::string(error.what()).find("mandelbrot"), std::string::npos);
  }
  EXPECT_EQ(store.stats().rejected, 2u);
  // A different tenant with different dimensionality is fine.
  EXPECT_TRUE(store.append(key_b(), {1, 2}, 5.0, true));
}

TEST(ResultsStore, PersistedStoreReloadsByteIdentical) {
  const test_util::ScratchDir scratch("repro_store");
  const std::string dir = scratch.path();
  std::uint64_t live_digest = 0;
  {
    StoreOptions options;
    options.dir = dir;
    ResultsStore store(options);
    store.load();
    EXPECT_TRUE(store.persistent());
    ASSERT_TRUE(store.append(key_a(), {1, 2, 3}, 10.5, true));
    ASSERT_TRUE(store.append(key_a(), {4, 5, 6}, std::nan(""), false));
    ASSERT_TRUE(store.append(key_b(), {7, 8}, 20.25, true));
    live_digest = store.digest();
  }
  StoreOptions options;
  options.dir = dir;
  ResultsStore reloaded(options);
  reloaded.load();
  const StoreStats stats = reloaded.stats();
  EXPECT_EQ(stats.loaded_records, 3u);
  EXPECT_FALSE(stats.torn_tail);
  EXPECT_EQ(reloaded.digest(), live_digest);
  const std::vector<StoreRecord> rows = reloaded.query(key_a());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].value, 10.5);
  EXPECT_TRUE(std::isnan(rows[1].value));
}

TEST(ResultsStore, LoadTwiceThrows) {
  ResultsStore store(memory_options());
  store.load();
  EXPECT_THROW(store.load(), StoreError);
}

TEST(ResultsStore, TornFinalLineIsDroppedAndTruncatedAway) {
  const test_util::ScratchDir scratch("repro_store");
  const std::string dir = scratch.path();
  {
    StoreOptions options;
    options.dir = dir;
    ResultsStore store(options);
    store.load();
    ASSERT_TRUE(store.append(key_a(), {1, 2, 3}, 10.0, true));
    ASSERT_TRUE(store.append(key_a(), {4, 5, 6}, 20.0, true));
  }
  // Simulate a crash mid-append: an unterminated JSON fragment at the tail.
  {
    std::ofstream out(dir + "/results.log", std::ios::app | std::ios::binary);
    out << R"({"b":"mandelbrot","a":"rtxtitan","s":"aaaa)";
  }
  std::uint64_t digest = 0;
  {
    StoreOptions options;
    options.dir = dir;
    ResultsStore store(options);
    store.load();
    const StoreStats stats = store.stats();
    EXPECT_TRUE(stats.torn_tail);
    EXPECT_EQ(stats.loaded_records, 2u);
    // The tail was ftruncate'd away, so the next append lands cleanly.
    ASSERT_TRUE(store.append(key_a(), {7, 8, 9}, 30.0, true));
    digest = store.digest();
  }
  StoreOptions options;
  options.dir = dir;
  ResultsStore store(options);
  store.load();
  EXPECT_FALSE(store.stats().torn_tail);
  EXPECT_EQ(store.stats().loaded_records, 3u);
  EXPECT_EQ(store.digest(), digest);
}

TEST(ResultsStore, MalformedInteriorRecordIsAHardError) {
  const test_util::ScratchDir scratch("repro_store");
  const std::string dir = scratch.path();
  {
    StoreOptions options;
    options.dir = dir;
    ResultsStore store(options);
    store.load();
    ASSERT_TRUE(store.append(key_a(), {1, 2, 3}, 10.0, true));
  }
  // An append-only log killed mid-write can only be damaged at its end;
  // interior damage means external corruption and must refuse to load.
  std::string text;
  {
    std::ifstream in(dir + "/results.log", std::ios::binary);
    std::getline(in, text);
  }
  {
    std::ofstream out(dir + "/results.log", std::ios::trunc | std::ios::binary);
    out << "this is not json\n" << text << "\n";
  }
  StoreOptions options;
  options.dir = dir;
  ResultsStore store(options);
  EXPECT_THROW(store.load(), StoreError);
}

TEST(ResultsStore, CapacityEvictsOldestFirstAndReplaysIdentically) {
  const test_util::ScratchDir scratch("repro_store");
  const std::string dir = scratch.path();
  StoreOptions options;
  options.dir = dir;
  options.capacity = 4;
  std::uint64_t live_digest = 0;
  {
    ResultsStore store(options);
    store.load();
    for (int i = 0; i < 6; ++i)
      ASSERT_TRUE(store.append(key_a(), {i, i, i}, 10.0 + i, true));
    // Global FIFO: the two oldest rows are gone, the four newest survive.
    const std::vector<StoreRecord> rows = store.query(key_a());
    ASSERT_EQ(rows.size(), 4u);
    EXPECT_EQ(rows[0].config, (tuner::Configuration{2, 2, 2}));
    EXPECT_EQ(rows[3].config, (tuner::Configuration{5, 5, 5}));
    EXPECT_EQ(store.stats().evictions, 2u);
    live_digest = store.digest();
  }
  // Reload replays the full log through the same capacity rule: the
  // surviving set (and digest) is a pure function of the append stream.
  ResultsStore reloaded(options);
  reloaded.load();
  EXPECT_EQ(reloaded.stats().records, 4u);
  EXPECT_EQ(reloaded.stats().evictions, 2u);
  EXPECT_EQ(reloaded.digest(), live_digest);
}

TEST(ResultsStore, CompactionDropsDeadLinesAndPreservesDigest) {
  const test_util::ScratchDir scratch("repro_store");
  const std::string dir = scratch.path();
  StoreOptions options;
  options.dir = dir;
  options.capacity = 3;
  options.compact_slack = 1u << 20;  // keep auto-compaction out of the way
  std::uint64_t digest = 0;
  {
    ResultsStore store(options);
    store.load();
    for (int i = 0; i < 10; ++i)
      ASSERT_TRUE(store.append(key_a(), {i, i, i}, 1.0 + i, true));
    EXPECT_EQ(store.stats().log_records, 10u);
    digest = store.digest();
    EXPECT_EQ(store.compact(), 7u);
    const StoreStats stats = store.stats();
    EXPECT_EQ(stats.log_records, 3u);
    EXPECT_EQ(stats.compactions, 1u);
    EXPECT_EQ(store.digest(), digest);
    // The compacted log keeps accepting appends.
    ASSERT_TRUE(store.append(key_a(), {11, 11, 11}, 99.0, true));
    digest = store.digest();
  }
  ResultsStore reloaded(options);
  reloaded.load();
  EXPECT_EQ(reloaded.digest(), digest);
}

TEST(ResultsStore, AutoCompactionTriggersPastTheSlack) {
  const test_util::ScratchDir scratch("repro_store");
  const std::string dir = scratch.path();
  StoreOptions options;
  options.dir = dir;
  options.capacity = 2;
  options.compact_slack = 4;
  ResultsStore store(options);
  store.load();
  // Dead lines pile up at one per append once the capacity is full;
  // compaction fires when they exceed max(slack, live) and the log shrinks
  // back to the live set.
  for (int i = 0; i < 16; ++i)
    ASSERT_TRUE(store.append(key_a(), {i, i, i}, 1.0 + i, true));
  const StoreStats stats = store.stats();
  EXPECT_GE(stats.compactions, 1u);
  EXPECT_LE(stats.log_records, 8u);
  EXPECT_EQ(stats.records, 2u);
}

TEST(ResultsStore, ExportIsSortedFilteredAndCapped) {
  ResultsStore store(memory_options());
  store.load();
  ASSERT_TRUE(store.append(key_b(), {1, 2}, 5.0, true));
  ASSERT_TRUE(store.append(key_b(), {3, 4}, 6.0, true));
  ASSERT_TRUE(store.append(key_a(), {1, 2, 3}, 10.0, true));
  const std::vector<TenantSnapshot> all = store.export_tenants();
  ASSERT_EQ(all.size(), 2u);
  // Sorted by key: mandelbrot < sobel.
  EXPECT_EQ(all[0].key.benchmark, "mandelbrot");
  EXPECT_EQ(all[1].key.benchmark, "sobel");
  const std::vector<TenantSnapshot> filtered = store.export_tenants("sobel");
  ASSERT_EQ(filtered.size(), 1u);
  EXPECT_EQ(filtered[0].rows.size(), 2u);
  const std::vector<TenantSnapshot> arch_miss = store.export_tenants("", "nosucharch");
  EXPECT_TRUE(arch_miss.empty());
  const std::vector<TenantSnapshot> capped = store.export_tenants("", "", 2);
  std::size_t rows = 0;
  for (const TenantSnapshot& tenant : capped) rows += tenant.rows.size();
  EXPECT_EQ(rows, 2u);
}

TEST(ResultsStore, ExportPageResumesWhereThePreviousPageStopped) {
  ResultsStore store(memory_options());
  store.load();
  ASSERT_TRUE(store.append(key_b(), {1, 2}, 5.0, true));
  ASSERT_TRUE(store.append(key_b(), {3, 4}, 6.0, true));
  ASSERT_TRUE(store.append(key_b(), {5, 6}, 7.0, true));
  ASSERT_TRUE(store.append(key_a(), {1, 2, 3}, 10.0, true));

  // Page through 4 rows at 2 per page; rejoin the slices and compare with
  // the unpaged export.
  std::vector<TenantSnapshot> paged;
  std::string flat;
  std::size_t row = 0;
  int pages = 0;
  while (true) {
    const ResultsStore::ExportPage page = store.export_page("", "", 2, flat, row);
    ++pages;
    for (const TenantSnapshot& tenant : page.tenants) {
      if (!paged.empty() && paged.back().key.flat() == tenant.key.flat()) {
        paged.back().rows.insert(paged.back().rows.end(), tenant.rows.begin(),
                                 tenant.rows.end());
      } else {
        paged.push_back(tenant);
      }
    }
    if (!page.more) break;
    flat = page.next_tenant_flat;
    row = page.next_row;
  }
  EXPECT_EQ(pages, 2);

  const std::vector<TenantSnapshot> all = store.export_tenants();
  ASSERT_EQ(paged.size(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(paged[i].key.flat(), all[i].key.flat());
    ASSERT_EQ(paged[i].rows.size(), all[i].rows.size());
    for (std::size_t j = 0; j < all[i].rows.size(); ++j) {
      EXPECT_EQ(paged[i].rows[j].config, all[i].rows[j].config);
    }
  }

  // `more` is exact: a page ending exactly at the last row reports done.
  const ResultsStore::ExportPage tail = store.export_page("", "", 4, "", 0);
  EXPECT_FALSE(tail.more);
  // Resuming past the end of a tenant yields the next tenant, not a stall.
  const ResultsStore::ExportPage after =
      store.export_page("", "", 0, all[0].key.flat(), all[0].rows.size());
  ASSERT_EQ(after.tenants.size(), 1u);
  EXPECT_EQ(after.tenants[0].key.flat(), all[1].key.flat());
  EXPECT_FALSE(after.more);
}

TEST(ResultsStore, ImportRoundTripsAndDeduplicates) {
  ResultsStore source(memory_options());
  source.load();
  ASSERT_TRUE(source.append(key_a(), {1, 2, 3}, 10.0, true));
  ASSERT_TRUE(source.append(key_b(), {1, 2}, 5.0, true));
  ResultsStore target(memory_options());
  target.load();
  EXPECT_EQ(target.import_tenants(source.export_tenants()), 2u);
  EXPECT_EQ(target.digest(), source.digest());
  // Re-import is a pure no-op (dedup), so replayed imports are idempotent.
  EXPECT_EQ(target.import_tenants(source.export_tenants()), 0u);
  EXPECT_EQ(target.digest(), source.digest());
}

TEST(ResultsStore, DuplicateAppendWritesNothingToTheLog) {
  const test_util::ScratchDir scratch("repro_store");
  const std::string dir = scratch.path();
  StoreOptions options;
  options.dir = dir;
  ResultsStore store(options);
  store.load();
  ASSERT_TRUE(store.append(key_a(), {1, 2, 3}, 10.0, true));
  const std::uint64_t bytes = store.stats().log_bytes;
  EXPECT_FALSE(store.append(key_a(), {1, 2, 3}, 10.0, true));
  EXPECT_EQ(store.stats().log_bytes, bytes);
}

TEST(ResultsStore, EmptyConfigurationIsRefused) {
  ResultsStore store(memory_options());
  store.load();
  EXPECT_THROW((void)store.append(key_a(), {}, 1.0, true), StoreError);
}

}  // namespace
}  // namespace repro::store
