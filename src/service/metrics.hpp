#pragma once
// The `status` metrics table: every counter, gauge and flag that `tuned`
// reports, and that `tunelb` rolls up, is declared exactly once below.
//
// A row is (handle, kind, JSON path). The path is one or two literal
// segments: a top-level key, or a key inside one nested object ("quotas",
// "ship", ...). Kinds:
//   counter  monotonic count, bumped by its owner through MetricSet::add;
//   gauge    a current level, sampled by its owner into the snapshot;
//   flag     a boolean, sampled like a gauge, encoded as JSON true/false;
//   rows     the keyed per-tenant rows of quotas.tenants.
// Owners (SessionManager, WalShipper, TuneServer) each hold a MetricSet and
// fill a MetricsSnapshot on demand. The daemon's `status` op encodes the
// snapshot by walking the table; the router decodes each shard's reply by
// the same walk and merges: numbers sum, flags OR, tenant rows merge by
// tenant. Every row is always present on the wire; the *_enabled flags say
// whether the block behind it is switched on.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <string_view>

#include "common/json.hpp"
#include "tuner/objective.hpp"

namespace repro::service {

// X(handle, kind, path segments...)
#define REPRO_STATUS_METRICS(X)                                          \
  X(kLiveSessions, kGauge, "live_sessions")                              \
  X(kOpened, kCounter, "opened")                                         \
  X(kClosed, kCounter, "closed")                                         \
  X(kEvicted, kCounter, "evicted")                                       \
  X(kFinished, kGauge, "finished")                                       \
  X(kAsks, kCounter, "asks")                                             \
  X(kTells, kCounter, "tells")                                           \
  X(kDuplicateTells, kCounter, "duplicate_tells")                        \
  X(kSessionsOmitted, kGauge, "sessions_omitted")                        \
  X(kTallyOk, kCounter, "tallies", "ok")                                 \
  X(kTallyInvalid, kCounter, "tallies", "invalid")                       \
  X(kTallyTransient, kCounter, "tallies", "transient")                   \
  X(kTallyTimeout, kCounter, "tallies", "timeout")                       \
  X(kTallyCrashed, kCounter, "tallies", "crashed")                       \
  X(kTallyRetries, kCounter, "tallies", "retries")                       \
  X(kTallyRetrySuccesses, kCounter, "tallies", "retry_successes")        \
  X(kTallyBackoffUs, kCounter, "tallies", "backoff_us")                  \
  X(kWalEnabled, kFlag, "wal_enabled")                                   \
  X(kWalErrors, kCounter, "wal_errors")                                  \
  X(kSessionsRecovered, kCounter, "recovery", "sessions_recovered")      \
  X(kTellsReplayed, kCounter, "recovery", "tells_replayed")              \
  X(kSessionsFailed, kCounter, "recovery", "sessions_failed")            \
  X(kTornTails, kCounter, "recovery", "torn_tails")                      \
  X(kClosedDiscarded, kCounter, "recovery", "closed_discarded")          \
  X(kEvictedTombstones, kCounter, "recovery", "evicted_tombstones")      \
  X(kStoreEnabled, kFlag, "store_enabled")                               \
  X(kStoreRecords, kGauge, "store", "records")                           \
  X(kStoreTenants, kGauge, "store", "tenants")                           \
  X(kStoreAppendErrors, kCounter, "store", "append_errors")              \
  X(kStoreIoErrors, kGauge, "store", "io_errors")                        \
  X(kShipEnabled, kFlag, "ship_enabled")                                 \
  X(kShipConnected, kFlag, "ship_connected")                             \
  X(kShipFenced, kFlag, "ship_fenced")                                   \
  X(kShipRecordsShipped, kCounter, "ship", "records_shipped")            \
  X(kShipDuplicatesAcked, kCounter, "ship", "duplicates_acked")          \
  X(kShipResyncs, kCounter, "ship", "resyncs")                           \
  X(kShipReconnects, kCounter, "ship", "reconnects")                     \
  X(kShipFailures, kCounter, "ship", "failures")                         \
  X(kShipRetargets, kCounter, "ship", "retargets")                       \
  X(kShipStoreRowsResynced, kCounter, "ship", "store_rows_resynced")     \
  X(kQuotasEnabled, kFlag, "quotas", "enabled")                          \
  X(kQueueDepth, kGauge, "quotas", "queue_depth")                        \
  X(kQueued, kCounter, "quotas", "queued")                               \
  X(kGranted, kCounter, "quotas", "granted")                             \
  X(kTimeouts, kCounter, "quotas", "timeouts")                           \
  X(kShedAnonymous, kCounter, "quotas", "shed_anonymous")                \
  X(kShedOverQuota, kCounter, "quotas", "shed_over_quota")               \
  X(kShedQueueFull, kCounter, "quotas", "shed_queue_full")               \
  X(kTellPushbacks, kCounter, "quotas", "tell_pushbacks")                \
  X(kTenants, kRows, "quotas", "tenants")                                \
  X(kPromotions, kCounter, "promotions")                                 \
  X(kDemotions, kCounter, "demotions")                                   \
  X(kActiveConnections, kGauge, "active_connections")                    \
  X(kConnectionsAccepted, kCounter, "connections_accepted")              \
  X(kConnectionsReaped, kCounter, "connections_reaped")                  \
  X(kConnectionsRefused, kCounter, "connections_refused")

enum class Metric : std::size_t {
#define REPRO_METRIC_HANDLE(handle, kind, ...) handle,
  REPRO_STATUS_METRICS(REPRO_METRIC_HANDLE)
#undef REPRO_METRIC_HANDLE
};

enum class MetricKind { kCounter, kGauge, kFlag, kRows };

/// One table row: its kind and its path, {key} or {section, key}.
struct MetricDef {
  MetricKind kind;
  std::string_view path[2];
  [[nodiscard]] constexpr std::string_view section() const {
    return path[1].empty() ? std::string_view() : path[0];
  }
  [[nodiscard]] constexpr std::string_view key() const {
    return path[1].empty() ? path[0] : path[1];
  }
};

inline constexpr MetricDef kMetricTable[] = {
#define REPRO_METRIC_ROW(handle, kind, ...) {MetricKind::kind, {__VA_ARGS__}},
    REPRO_STATUS_METRICS(REPRO_METRIC_ROW)
#undef REPRO_METRIC_ROW
};
inline constexpr std::size_t kMetricCount = std::size(kMetricTable);

/// Columns of one quotas.tenants row; the row is keyed by kTenantKey.
enum TenantColumn : std::size_t {
  kTenantSessions,
  kTenantInflightTells,
  kTenantQueued,
  kTenantColumnCount
};
inline constexpr std::string_view kTenantKey = "tenant";
inline constexpr std::string_view kTenantColumnNames[kTenantColumnCount] = {
    "sessions", "inflight_tells", "queued"};

/// The tally counter a tell of this status bumps: the tallies rows follow
/// EvalStatus order.
[[nodiscard]] constexpr Metric tally_metric(tuner::EvalStatus status) noexcept {
  return static_cast<Metric>(static_cast<std::size_t>(Metric::kTallyOk) +
                             static_cast<std::size_t>(status));
}
static_assert([] {
  using tuner::EvalStatus;
  for (const EvalStatus status : {EvalStatus::kOk, EvalStatus::kInvalid, EvalStatus::kTransient,
                                  EvalStatus::kTimeout, EvalStatus::kCrashed}) {
    if (kMetricTable[static_cast<std::size_t>(tally_metric(status))].key() !=
        tuner::to_string(status))
      return false;
  }
  return true;
}());

using TenantRow = std::array<std::uint64_t, kTenantColumnCount>;

/// A point-in-time copy of every table metric: what `status` encodes, what
/// the router merges, and what in-process callers read.
class MetricsSnapshot {
 public:
  [[nodiscard]] std::uint64_t operator[](Metric metric) const noexcept {
    return values_[static_cast<std::size_t>(metric)];
  }
  void set(Metric metric, std::uint64_t value) noexcept {
    values_[static_cast<std::size_t>(metric)] = value;
  }

  /// quotas.tenants, sorted by tenant name.
  std::map<std::string, TenantRow> tenants;

  /// Cluster rollup: counters and gauges sum, flags OR, tenant rows merge
  /// column-wise by tenant.
  void merge(const MetricsSnapshot& other);
  /// Write every table row into `status` (an object), creating the nested
  /// objects on the way.
  void encode_into(Json& status) const;
  /// Read a `status` reply back by the same walk. Missing or mistyped
  /// members read as zero, so a reply from an older daemon merges cleanly.
  [[nodiscard]] static MetricsSnapshot decode(const Json& status);

 private:
  friend class MetricSet;
  std::array<std::uint64_t, kMetricCount> values_{};
};

/// The live counters one owner bumps. Lock-free; every slot the owner never
/// touches stays zero, so several sets add up into one snapshot.
class MetricSet {
 public:
  void add(Metric metric, std::uint64_t count = 1) noexcept {
    slots_[static_cast<std::size_t>(metric)].fetch_add(count, std::memory_order_relaxed);
  }
  /// Add every slot into `snapshot`.
  void add_to(MetricsSnapshot& snapshot) const noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kMetricCount> slots_{};
};

}  // namespace repro::service
