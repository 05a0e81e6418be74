#include "service/session_manager.hpp"

#include <unistd.h>

#include <algorithm>
#include <stdexcept>

#include "common/log.hpp"
#include "tuner/registry.hpp"

namespace repro::service {
namespace {

/// Keep enough tombstones to cover any realistic retry window without
/// letting a pathological eviction storm grow the list unboundedly.
constexpr std::size_t kTombstoneCap = 4096;

}  // namespace

SessionManager::SessionManager(SessionLimits limits,
                               std::shared_ptr<store::ResultsStore> store)
    : limits_(std::move(limits)), store_(std::move(store)) {
  // A shipper also exists (disabled, port 0) for every durable daemon:
  // reseed() retargets it at a follower later, and shipper_ must be
  // immutable after construction — lazy creation would race the unlocked
  // reads on the tell path.
  if (limits_.ship.port != 0 || !limits_.state_dir.empty()) {
    ShipConfig ship = limits_.ship;
    ship.state_dir = limits_.state_dir;  // resync source = our own journals
    shipper_ = std::make_unique<WalShipper>(std::move(ship), store_);
  }
}

void SessionManager::bind_store_tenant(ManagedSession& managed,
                                       const OpenParams& params) const {
  if (store_ == nullptr || params.benchmark.empty() || params.arch.empty()) return;
  managed.store_enabled = true;
  managed.store_key = store::StoreKey{params.benchmark, params.arch,
                                      space_fingerprint_of(params)};
}

void SessionManager::store_append(const ManagedSession& managed,
                                  const tuner::Configuration& config,
                                  const tuner::Evaluation& evaluation) {
  if (store_ == nullptr || !managed.store_enabled || config.empty()) return;
  const double value =
      evaluation.valid ? evaluation.value : std::numeric_limits<double>::quiet_NaN();
  try {
    (void)store_->append(managed.store_key, config, value, evaluation.valid);
  } catch (const store::StoreError& error) {
    log_warn("results store: dropping record for {}/{}: {}",
             managed.store_key.benchmark, managed.store_key.arch, error.what());
    metrics_.add(Metric::kStoreAppendErrors);
  }
}

SessionManager::~SessionManager() { cancel_all(); }

MetricsSnapshot SessionManager::recover() {
  if (limits_.state_dir.empty()) return metrics();
  // Sorted scan: recovery order (and thus replay thread scheduling) is
  // deterministic across restarts.
  const std::vector<std::string> paths = list_session_wals(limits_.state_dir);
  // Idle-eviction bookkeeping; never feeds tuning results.
  const auto now = std::chrono::steady_clock::now();  // NOLINT(reprolint-wall-clock)
  for (const std::string& path : paths) {
    WalSession journal;
    try {
      journal = load_session_wal(path);
    } catch (const std::exception& error) {
      log_warn("recovery: dropping unrecoverable journal {}: {}", path, error.what());
      metrics_.add(Metric::kSessionsFailed);
      continue;
    }
    if (journal.torn_tail) metrics_.add(Metric::kTornTails);
    if (journal.closed) {
      // Crash landed between the close record and the unlink; finish the job.
      (void)::unlink(path.c_str());
      metrics_.add(Metric::kClosedDiscarded);
      continue;
    }
    if (journal.evicted) {
      repro::MutexLock lock(mutex_);
      add_tombstone(journal.id);
      metrics_.add(Metric::kEvictedTombstones);
      continue;
    }
    try {
      // A warm-started session recovers with the *journaled* prior snapshot
      // — never a fresh store query, which would see history appended since
      // the original open and diverge the replay.
      std::unique_ptr<tuner::SearchAlgorithm> algorithm =
          tuner::make_algorithm(journal.open.algorithm, journal.open.prior);
      tuner::ParamSpace space = journal.open.make_space();
      auto managed = std::make_shared<ManagedSession>(
          std::move(space), std::move(algorithm), journal.open.budget,
          journal.open.seed, journal.open.retry);
      managed->last_activity = now;
      managed->token = journal.token;
      managed->tenant = journal.open.tenant;
      bind_store_tenant(*managed, journal.open);
      // Replay: deterministic search must re-propose exactly the journaled
      // configurations; any divergence means the journal does not belong to
      // this binary/space and recovering it would corrupt the study.
      for (const WalTell& tell : journal.tells) {
        const std::optional<tuner::Configuration> config = managed->session.ask();
        if (!config || *config != tell.config) {
          throw std::runtime_error("replay diverged from journal at seq " +
                                   std::to_string(tell.seq));
        }
        managed->session.tell(tell.evaluation);
        // Re-append to the results store: dedup makes this idempotent when
        // the store already has the record, and it heals a store whose own
        // log lost a tail the session WAL retained.
        store_append(*managed, tell.config, tell.evaluation);
        metrics_.add(Metric::kTellsReplayed);
      }
      managed->applied_seq =
          journal.tells.empty() ? 0 : journal.tells.back().seq;
      managed->orphan_proposal = true;
      managed->wal = SessionWal::reattach(path, journal.valid_bytes);

      if (managed->wal == nullptr) metrics_.add(Metric::kWalErrors);
      metrics_.add(Metric::kAsks, journal.tells.size());
      metrics_.add(Metric::kTells, journal.tells.size());
      for (const WalTell& tell : journal.tells)
        metrics_.add(tally_metric(tell.evaluation.status));
      repro::MutexLock lock(mutex_);
      if (!managed->tenant.empty()) ++tenant_live_[managed->tenant];
      sessions_.emplace_back(journal.id, managed);
      metrics_.add(Metric::kOpened);
      // Keep fresh ids clear of every recovered id ("s<N>").
      if (journal.id.size() > 1 && journal.id[0] == 's') {
        try {
          const std::uint64_t numeric = std::stoull(journal.id.substr(1));
          next_id_ = std::max(next_id_, numeric + 1);
        } catch (const std::exception&) {
          // Foreign id scheme; fresh ids cannot collide with it.
        }
      }
      metrics_.add(Metric::kSessionsRecovered);
      log_info("recovery: session {} restored ({} tells replayed)", journal.id,
               journal.tells.size());
    } catch (const std::exception& error) {
      log_warn("recovery: cannot replay journal {}: {}", path, error.what());
      metrics_.add(Metric::kSessionsFailed);
    }
  }
  return metrics();
}

std::string SessionManager::open(const OpenParams& params, const std::string& token) {
  {
    repro::MutexLock lock(mutex_);
    if (!token.empty()) {
      for (auto& [id, managed] : sessions_) {
        if (managed->token == token) {
          // Idempotent re-open: the first response was lost, not the session.
          // Idle-eviction bookkeeping; never feeds tuning results.
          managed->last_activity = std::chrono::steady_clock::now();  // NOLINT(reprolint-wall-clock)
          return id;
        }
      }
    }
  }
  // Admission: reserves one slot (throwing the typed retry_later when the
  // caller must back off). The reservation is either consumed by the
  // registration below or returned by the guard on every other exit.
  admit(params.tenant);
  struct ReservationGuard {
    SessionManager* manager;
    const std::string* tenant;
    bool committed = false;
    ~ReservationGuard() {
      if (!committed) manager->release_admission(*tenant);
    }
  } reservation{this, &params.tenant};
  // Warm start: snapshot the tenant's prior history EXACTLY ONCE, here, at
  // the client-facing open. The snapshot rides `effective` into the WAL
  // open record and the ship_open frame, so recovery and the standby replay
  // the same prior verbatim instead of re-deriving it from a store that has
  // since moved on (which would diverge the deterministic replay).
  OpenParams effective = params;
  if (store_ != nullptr && effective.warm_start && effective.prior == nullptr &&
      !effective.benchmark.empty() && !effective.arch.empty()) {
    const store::StoreKey key{effective.benchmark, effective.arch,
                              space_fingerprint_of(effective)};
    const std::vector<store::StoreRecord> rows =
        store_->query(key, limits_.warm_start_max_rows);
    if (!rows.empty()) {
      tuner::PriorHistory prior;
      prior.reserve(rows.size());
      for (const store::StoreRecord& row : rows) {
        prior.push_back(tuner::PriorObservation{row.config, row.value, row.valid});
      }
      effective.prior = std::make_shared<const tuner::PriorHistory>(std::move(prior));
    }
  }
  // Construct outside the lock: registry lookup and space building can
  // throw, and AskTellSession starts a thread.
  std::unique_ptr<tuner::SearchAlgorithm> algorithm;
  try {
    algorithm = tuner::make_algorithm(effective.algorithm, effective.prior);
  } catch (const std::out_of_range&) {
    throw ProtocolError(ErrorCode::kBadRequest,
                        "unknown algorithm: " + params.algorithm);
  }
  tuner::ParamSpace space = effective.make_space();
  auto managed = std::make_shared<ManagedSession>(
      std::move(space), std::move(algorithm), effective.budget, effective.seed,
      effective.retry);
  // Idle-eviction bookkeeping; never feeds tuning results.
  managed->last_activity = std::chrono::steady_clock::now();  // NOLINT(reprolint-wall-clock)
  managed->token = token;
  managed->tenant = effective.tenant;
  bind_store_tenant(*managed, effective);

  std::string id;
  {
    repro::MutexLock lock(mutex_);
    if (!token.empty()) {
      for (auto& [existing_id, existing] : sessions_) {
        if (existing->token == token) {
          // Lost the race against a concurrent open with the same token.
          managed->session.cancel();
          return existing_id;
        }
      }
    }
    // The admit() reservation guarantees a slot; convert it into the live
    // registration.
    consume_reservation_locked(params.tenant);
    reservation.committed = true;
    if (!managed->tenant.empty()) ++tenant_live_[managed->tenant];
    // push_back+append sidesteps a GCC 12 -Wrestrict false positive
    // (PR105329) on assigning the concatenation temporary.
    id.push_back('s');
    id += std::to_string(next_id_++);
    sessions_.emplace_back(id, managed);
    metrics_.add(Metric::kOpened);
  }
  // Journal the open before the caller can observe the id: once the client
  // sees this session exist, a crash must not forget it. `effective`
  // carries the prior snapshot, so recovery warm-starts identically.
  if (!limits_.state_dir.empty()) {
    managed->wal =
        SessionWal::create(wal_path(limits_.state_dir, id), id, token, effective);
    if (managed->wal == nullptr) metrics_.add(Metric::kWalErrors);
  }
  // Replicate the open to the hot standby before the id is observable, for
  // the same reason the journal is written first. A ship failure degrades
  // the shard (resync repairs it later), it never fails the open.
  if (shipper_ != nullptr) (void)shipper_->ship_open(id, token, effective);
  log_debug("session {} opened: {} budget={} seed={}{}", id, effective.algorithm,
            effective.budget, effective.seed,
            effective.prior != nullptr && !effective.prior->empty()
                ? " (warm start: " + std::to_string(effective.prior->size()) +
                      " prior rows)"
                : "");
  return id;
}

void SessionManager::add_tombstone(const std::string& id) {
  if (std::find(tombstones_.begin(), tombstones_.end(), id) != tombstones_.end())
    return;
  if (tombstones_.size() >= kTombstoneCap)
    tombstones_.erase(tombstones_.begin());
  tombstones_.push_back(id);
}

void SessionManager::throw_missing(const std::string& id) {
  if (std::find(tombstones_.begin(), tombstones_.end(), id) != tombstones_.end()) {
    throw ProtocolError(ErrorCode::kSessionEvicted,
                        "session " + id + " was evicted (idle timeout)");
  }
  throw ProtocolError(ErrorCode::kUnknownSession, "unknown session: " + id);
}

std::shared_ptr<SessionManager::ManagedSession> SessionManager::find_and_touch(
    const std::string& id) {
  repro::MutexLock lock(mutex_);
  for (auto& [key, session] : sessions_) {
    if (key == id) {
      // Idle-eviction bookkeeping; never feeds tuning results.
      session->last_activity = std::chrono::steady_clock::now();  // NOLINT(reprolint-wall-clock)
      return session;
    }
  }
  throw_missing(id);
  return nullptr;  // unreachable; throw_missing always throws
}

std::optional<tuner::Configuration> SessionManager::ask(
    const std::string& id,
    const std::optional<std::chrono::steady_clock::time_point>& deadline,
    bool resume) {
  const std::shared_ptr<ManagedSession> managed = find_and_touch(id);
  if (resume) {
    // Reconnect path: if the proposal the client lost is still outstanding,
    // hand it out again instead of tripping kAskPending. Falls through to a
    // fresh ask when nothing is outstanding (the response the client lost
    // was a tell-ack, not an ask).
    if (const auto config = managed->session.outstanding_config()) return config;
  }
  try {
    // Blocks; manager mutex NOT held.
    auto config = deadline ? managed->session.ask_until(*deadline)
                           : managed->session.ask();
    metrics_.add(Metric::kAsks);
    repro::MutexLock lock(mutex_);
    managed->orphan_proposal = false;
    return config;
  } catch (const tuner::AskPendingError& error) {
    throw ProtocolError(ErrorCode::kAskPending, error.what());
  } catch (const tuner::DeadlineExceeded& error) {
    throw ProtocolError(ErrorCode::kDeadlineExceeded, error.what());
  } catch (const tuner::SessionCancelled&) {
    throw ProtocolError(ErrorCode::kSessionClosed,
                        "session " + id + " was cancelled while ask was blocked");
  }
}

SessionManager::TellAck SessionManager::tell(const std::string& id,
                                             const tuner::Evaluation& evaluation,
                                             std::uint64_t seq) {
  const std::shared_ptr<ManagedSession> managed = find_and_touch(id);
  // In-flight tell quota: an executing tell pins a connection thread through
  // the WAL fsync and the standby's ack; bound what one tenant may pin.
  // Charged before the duplicate check (a retry storm is load too).
  struct InflightCredit {
    SessionManager* manager = nullptr;
    const std::string* tenant = nullptr;
    ~InflightCredit() {
      if (manager != nullptr) manager->end_inflight_tell(*tenant);
    }
  } credit;
  if (begin_inflight_tell(managed->tenant)) {
    credit.manager = this;
    credit.tenant = &managed->tenant;
  }
  bool orphan = false;
  if (seq != 0) {
    repro::MutexLock lock(mutex_);
    orphan = managed->orphan_proposal;
    if (seq <= managed->applied_seq) {
      // Retried frame whose first delivery was applied but whose ack was
      // lost. Acknowledge without re-applying.
      metrics_.add(Metric::kDuplicateTells);
      const std::size_t told = managed->session.tells();
      const std::size_t budget = managed->session.budget();
      return TellAck{told >= budget ? 0 : budget - told, true};
    }
    if (seq != managed->applied_seq + 1) {
      throw ProtocolError(ErrorCode::kBadRequest,
                          "tell seq gap: got " + std::to_string(seq) +
                              ", expected " +
                              std::to_string(managed->applied_seq + 1));
    }
  }
  // Snapshot the proposal being answered before tell() clears it — it is
  // journaled alongside the measurement as a replay integrity check.
  std::optional<tuner::Configuration> config =
      managed->session.outstanding_config();
  try {
    managed->session.tell(evaluation);
  } catch (const tuner::TellMismatchError& error) {
    if (seq == 0 || !orphan)
      throw ProtocolError(ErrorCode::kNoAskOutstanding, error.what());
    // Failover race: the proposal this seq answers was handed out by a
    // previous incarnation that died before the tell arrived (a promoted
    // standby's replica sessions hold no outstanding ask; a recovered
    // primary's replayed sessions don't either). The orphan flag proved
    // no ask left THIS incarnation, the seq gate proved this is the next
    // unapplied measurement, and the deterministic search re-proposes
    // exactly the configuration the client evaluated — ask here and apply
    // the retried tell to it.
    try {
      config = managed->session.ask();
      if (!config)
        throw ProtocolError(ErrorCode::kNoAskOutstanding,
                            "retried tell " + std::to_string(seq) +
                                " arrived after the search finished");
      managed->session.tell(evaluation);
    } catch (const tuner::AskPendingError& inner) {
      throw ProtocolError(ErrorCode::kAskPending, inner.what());
    } catch (const tuner::TellMismatchError& inner) {
      throw ProtocolError(ErrorCode::kNoAskOutstanding, inner.what());
    } catch (const tuner::SessionCancelled&) {
      throw ProtocolError(ErrorCode::kSessionClosed,
                          "session " + id + " was cancelled while the retried "
                          "tell re-asked");
    }
  }
  std::uint64_t applied = 0;
  {
    repro::MutexLock lock(mutex_);
    applied = managed->applied_seq = seq != 0 ? seq : managed->applied_seq + 1;
    managed->orphan_proposal = false;
  }
  metrics_.add(Metric::kTells);
  metrics_.add(tally_metric(evaluation.status));
  // Durability barrier: the ack frame must not leave before the journal
  // record is on disk, or a crash loses an acknowledged measurement.
  if (managed->wal != nullptr &&
      !managed->wal->append_tell(applied, config.value_or(tuner::Configuration{}),
                                 evaluation)) {
    metrics_.add(Metric::kWalErrors);
  }
  // Results-store barrier: the tenant's history record is fsync'd before
  // the ack leaves too, so an acknowledged tell can warm-start future
  // sessions even across a crash.
  if (config.has_value()) store_append(*managed, *config, evaluation);
  // Replication barrier: while the ship link is up, the ack also waits for
  // the standby's fsync'd apply — an acknowledged tell then survives a
  // primary SIGKILL with zero client-visible loss. On ship failure the
  // shard keeps serving (degraded) and resync converges the standby later.
  if (shipper_ != nullptr) {
    (void)shipper_->ship_tell(id, applied, config.value_or(tuner::Configuration{}),
                              evaluation);
  }
  const std::size_t told = managed->session.tells();
  const std::size_t budget = managed->session.budget();
  return TellAck{told >= budget ? 0 : budget - told, false};
}

SessionManager::ResultPayload SessionManager::result(
    const std::string& id,
    const std::optional<std::chrono::steady_clock::time_point>& deadline) {
  const std::shared_ptr<ManagedSession> managed = find_and_touch(id);
  ResultPayload payload;
  try {
    // Blocks until finished; manager mutex NOT held.
    payload.result = deadline ? managed->session.result_until(*deadline)
                              : managed->session.result();
  } catch (const tuner::DeadlineExceeded& error) {
    throw ProtocolError(ErrorCode::kDeadlineExceeded, error.what());
  } catch (const tuner::SessionCancelled&) {
    throw ProtocolError(ErrorCode::kSessionClosed,
                        "session " + id + " was cancelled before finishing");
  } catch (const std::exception& error) {
    throw ProtocolError(ErrorCode::kInternal,
                        std::string("search thread failed: ") + error.what());
  }
  payload.counters = managed->session.counters();
  return payload;
}

void SessionManager::close(const std::string& id) {
  std::shared_ptr<ManagedSession> managed;
  {
    repro::MutexLock lock(mutex_);
    const auto it = std::find_if(sessions_.begin(), sessions_.end(),
                                 [&](const auto& entry) { return entry.first == id; });
    if (it == sessions_.end()) throw_missing(id);
    managed = std::move(it->second);
    sessions_.erase(it);
    metrics_.add(Metric::kClosed);
    note_removed_locked(*managed);
  }
  // Terminal record then unlink: if the crash lands between the two,
  // recovery sees the close record and finishes the unlink.
  if (managed->wal != nullptr) {
    const std::string path = managed->wal->path();
    if (!managed->wal->append_close()) metrics_.add(Metric::kWalErrors);
    managed->wal.reset();
    (void)::unlink(path.c_str());
  }
  if (shipper_ != nullptr) (void)shipper_->ship_close(id);
  // Cancel + destroy outside the lock: the session destructor joins the
  // search thread, which may need a moment to observe the cancel.
  managed->session.cancel();
  log_debug("session {} closed", id);
}

std::size_t SessionManager::evict_idle() {
  if (limits_.idle_timeout.count() <= 0) return 0;
  // Idle-eviction bookkeeping; never feeds tuning results.
  const auto now = std::chrono::steady_clock::now();  // NOLINT(reprolint-wall-clock)
  std::vector<std::pair<std::string, std::shared_ptr<ManagedSession>>> victims;
  {
    repro::MutexLock lock(mutex_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      const auto idle = std::chrono::duration_cast<std::chrono::milliseconds>(
          now - it->second->last_activity);
      if (idle > limits_.idle_timeout) {
        add_tombstone(it->first);
        credit_tenant_locked(it->second->tenant);
        victims.emplace_back(std::move(*it));
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
    metrics_.add(Metric::kEvicted, victims.size());
    // One drain after the sweep: freed slots go to queued opens only once
    // sessions_ reflects every removal.
    if (!victims.empty()) drain_admission_locked();
  }
  for (auto& [id, managed] : victims) {
    // Persist the eviction: the journal stays behind as a tombstone so a
    // restarted daemon reports kSessionEvicted instead of resurrecting a
    // session the policy already reaped.
    if (managed->wal != nullptr && !managed->wal->append_evicted())
      metrics_.add(Metric::kWalErrors);
    if (shipper_ != nullptr) (void)shipper_->ship_evict(id);
    managed->session.cancel();
    log_info("session {} evicted after {}ms idle", id,
             limits_.idle_timeout.count());
  }
  return victims.size();
}

std::shared_ptr<SessionManager::ManagedSession> SessionManager::register_session(
    const std::string& id, const OpenParams& params, const std::string& token) {
  {
    repro::MutexLock lock(mutex_);
    for (auto& [key, existing] : sessions_) {
      if (key == id) return nullptr;  // already live: idempotent re-delivery
    }
    // Replica/recovery opens bypass tenant quotas (the primary already
    // admitted them; refusing here would diverge the replica) but respect
    // the global cap, counting client opens' outstanding reservations.
    if (sessions_.size() + reserved_ >= limits_.max_sessions) {
      throw ProtocolError(ErrorCode::kRetryLater,
                          "session limit reached (" +
                              std::to_string(limits_.max_sessions) + ")",
                          limits_.retry_after_ms);
    }
  }
  std::unique_ptr<tuner::SearchAlgorithm> algorithm;
  try {
    // Replica/recovery path: the prior snapshot (if any) is the one the
    // primary journaled — never re-derived here.
    algorithm = tuner::make_algorithm(params.algorithm, params.prior);
  } catch (const std::out_of_range&) {
    throw ProtocolError(ErrorCode::kBadRequest,
                        "unknown algorithm: " + params.algorithm);
  }
  tuner::ParamSpace space = params.make_space();
  auto managed = std::make_shared<ManagedSession>(
      std::move(space), std::move(algorithm), params.budget, params.seed,
      params.retry);
  // Idle-eviction bookkeeping; never feeds tuning results.
  managed->last_activity = std::chrono::steady_clock::now();  // NOLINT(reprolint-wall-clock)
  managed->token = token;
  managed->tenant = params.tenant;
  bind_store_tenant(*managed, params);
  {
    repro::MutexLock lock(mutex_);
    for (auto& [key, existing] : sessions_) {
      if (key == id) {
        // Lost a race against a concurrent delivery of the same record.
        managed->session.cancel();
        return nullptr;
      }
    }
    if (sessions_.size() + reserved_ >= limits_.max_sessions) {
      managed->session.cancel();
      throw ProtocolError(ErrorCode::kRetryLater,
                          "session limit reached (" +
                              std::to_string(limits_.max_sessions) + ")",
                          limits_.retry_after_ms);
    }
    if (!managed->tenant.empty()) ++tenant_live_[managed->tenant];
    sessions_.emplace_back(id, managed);
    metrics_.add(Metric::kOpened);
    // Keep locally-minted ids clear of the adopted one ("s<N>" scheme).
    if (id.size() > 1 && id[0] == 's') {
      try {
        next_id_ = std::max<std::uint64_t>(next_id_, std::stoull(id.substr(1)) + 1);
      } catch (const std::exception&) {
        // Foreign id scheme; fresh ids cannot collide with it.
      }
    }
  }
  return managed;
}

void SessionManager::open_replica(const std::string& id, const OpenParams& params,
                                  const std::string& token) {
  const std::shared_ptr<ManagedSession> managed = register_session(id, params, token);
  if (managed == nullptr) return;  // duplicate ship_open: already applied
  {
    // Replica sessions never serve asks; if this one ever faces a client
    // (promotion), its outstanding proposal lives on the deposed primary.
    repro::MutexLock lock(mutex_);
    managed->orphan_proposal = true;
  }
  // The replica journals too: a follower crash (or a promoted follower's
  // later crash) recovers through the ordinary recover() path.
  if (!limits_.state_dir.empty()) {
    managed->wal =
        SessionWal::create(wal_path(limits_.state_dir, id), id, token, params);
    if (managed->wal == nullptr) metrics_.add(Metric::kWalErrors);
  }
  log_debug("replica session {} opened: {} budget={} seed={}", id,
            params.algorithm, params.budget, params.seed);
}

SessionManager::TellAck SessionManager::apply_replica_tell(
    const std::string& id, std::uint64_t seq, const tuner::Configuration& config,
    const tuner::Evaluation& evaluation) {
  const std::shared_ptr<ManagedSession> managed = find_and_touch(id);
  {
    repro::MutexLock lock(mutex_);
    if (seq != 0 && seq <= managed->applied_seq) {
      // Resync re-ships whole journals; records at or below the watermark
      // were applied by an earlier delivery.
      metrics_.add(Metric::kDuplicateTells);
      const std::size_t told = managed->session.tells();
      const std::size_t budget = managed->session.budget();
      return TellAck{told >= budget ? 0 : budget - told, true};
    }
    if (seq != 0 && seq != managed->applied_seq + 1) {
      throw ProtocolError(ErrorCode::kBadRequest,
                          "ship_tell seq gap: got " + std::to_string(seq) +
                              ", expected " +
                              std::to_string(managed->applied_seq + 1));
    }
  }
  // The replay step recover() performs per journal record, done live: the
  // deterministic search must re-propose exactly the shipped config, or
  // this replica does not mirror the primary and must refuse the record.
  std::optional<tuner::Configuration> proposal;
  try {
    proposal = managed->session.ask();
  } catch (const tuner::AskPendingError&) {
    proposal = managed->session.outstanding_config();
  } catch (const tuner::SessionCancelled&) {
    throw ProtocolError(ErrorCode::kSessionClosed,
                        "replica session " + id + " was cancelled");
  }
  if (!proposal || *proposal != config) {
    throw ProtocolError(ErrorCode::kBadRequest,
                        "replica diverged from shipped record at seq " +
                            std::to_string(seq));
  }
  try {
    managed->session.tell(evaluation);
  } catch (const tuner::TellMismatchError& error) {
    throw ProtocolError(ErrorCode::kNoAskOutstanding, error.what());
  }
  std::uint64_t applied = 0;
  {
    repro::MutexLock lock(mutex_);
    applied = managed->applied_seq = seq != 0 ? seq : managed->applied_seq + 1;
  }
  metrics_.add(Metric::kTells);
  metrics_.add(tally_metric(evaluation.status));
  // Same durability barrier as the primary: the ship ack must not leave
  // before this record is on the follower's disk.
  if (managed->wal != nullptr && !managed->wal->append_tell(applied, config, evaluation))
    metrics_.add(Metric::kWalErrors);
  // The standby's own results store gets the record too: a promoted shard
  // must warm-start future tenants exactly like the primary it replaces.
  store_append(*managed, config, evaluation);
  const std::size_t told = managed->session.tells();
  const std::size_t budget = managed->session.budget();
  return TellAck{told >= budget ? 0 : budget - told, false};
}

void SessionManager::close_replica(const std::string& id) {
  try {
    close(id);
  } catch (const ProtocolError&) {
    // Duplicate ship_close (or close of a session an earlier resync never
    // created): the end state — no such session — already holds.
  }
}

void SessionManager::evict_replica(const std::string& id) {
  std::shared_ptr<ManagedSession> managed;
  {
    repro::MutexLock lock(mutex_);
    const auto it = std::find_if(sessions_.begin(), sessions_.end(),
                                 [&](const auto& entry) { return entry.first == id; });
    add_tombstone(id);
    if (it == sessions_.end()) return;  // duplicate delivery
    managed = std::move(it->second);
    sessions_.erase(it);
    metrics_.add(Metric::kEvicted);
    note_removed_locked(*managed);
  }
  if (managed->wal != nullptr && !managed->wal->append_evicted())
    metrics_.add(Metric::kWalErrors);
  managed->session.cancel();
  log_debug("replica session {} evicted (shipped record)", id);
}

void SessionManager::connect_shipper() {
  if (shipper_ != nullptr) (void)shipper_->connect_now();
}

void SessionManager::ship_store_import(
    const std::vector<store::TenantSnapshot>& tenants) {
  if (shipper_ != nullptr) (void)shipper_->ship_store_import(tenants);
}

// --- tenant-fair admission ---------------------------------------------------

std::uint64_t SessionManager::retry_hint_locked() const {
  // Depth-scaled backoff: every queued open ahead of a shed caller is work
  // the daemon must absorb before a retry can succeed. Capped at 16x so the
  // hint never tells a client to disappear for minutes.
  const std::uint64_t factor =
      1 + std::min<std::uint64_t>(admission_depth_, 15);
  return limits_.retry_after_ms * factor;
}

void SessionManager::admit(const std::string& tenant) {
  const TenantQuotas& quotas = limits_.quotas;
  repro::MutexLock lock(mutex_);
  if (!tenant.empty() && quotas.max_sessions_per_tenant != 0) {
    const auto live_it = tenant_live_.find(tenant);
    const auto reserved_it = reserved_by_tenant_.find(tenant);
    const std::size_t held =
        (live_it != tenant_live_.end() ? live_it->second : 0) +
        (reserved_it != reserved_by_tenant_.end() ? reserved_it->second : 0);
    if (held >= quotas.max_sessions_per_tenant) {
      metrics_.add(Metric::kShedOverQuota);
      throw ProtocolError(ErrorCode::kRetryLater,
                          "tenant " + tenant + " session quota reached (" +
                              std::to_string(quotas.max_sessions_per_tenant) +
                              ")",
                          retry_hint_locked());
    }
  }
  if (sessions_.size() + reserved_ < limits_.max_sessions) {
    ++reserved_;
    if (!tenant.empty()) ++reserved_by_tenant_[tenant];
    return;
  }
  // Global cap reached. The admission queue is reserved for named, in-quota
  // tenants: anonymous opens (and everyone when queueing is off) shed
  // immediately with the depth-scaled hint. In-flight sessions are never
  // shed — overload only ever refuses *new* work.
  const bool can_queue = !tenant.empty() && quotas.admission_queue_cap != 0 &&
                         quotas.admission_wait.count() > 0;
  if (!can_queue) {
    if (tenant.empty() && quotas.enabled()) metrics_.add(Metric::kShedAnonymous);
    throw ProtocolError(ErrorCode::kRetryLater,
                        "session limit reached (" +
                            std::to_string(limits_.max_sessions) + ")",
                        retry_hint_locked());
  }
  if (admission_depth_ >= quotas.admission_queue_cap) {
    metrics_.add(Metric::kShedQueueFull);
    throw ProtocolError(ErrorCode::kRetryLater,
                        "admission queue full (" +
                            std::to_string(quotas.admission_queue_cap) + ")",
                        retry_hint_locked());
  }
  auto waiter = std::make_shared<AdmissionWaiter>();
  waiter->tenant = tenant;
  admission_queues_[tenant].push_back(waiter);
  ++admission_depth_;
  metrics_.add(Metric::kQueued);
  // Park until the drain hands this waiter a freed slot (or the wait
  // budget runs out). The condvar releases mutex_ while parked.
  (void)admission_cv_.wait_for(lock.native(), quotas.admission_wait, [&] {
    return waiter->granted || waiter->failed;
  });
  if (waiter->granted) return;  // the drain already reserved our slot
  if (waiter->failed) {
    // Flushed by shutdown/demote; the queue entry is already gone.
    throw ProtocolError(ErrorCode::kRetryLater, "admission queue flushed",
                        retry_hint_locked());
  }
  // Timed out while still queued: withdraw.
  const auto it = admission_queues_.find(tenant);
  if (it != admission_queues_.end()) {
    auto& queue = it->second;
    queue.erase(std::remove(queue.begin(), queue.end(), waiter), queue.end());
    if (queue.empty()) admission_queues_.erase(it);
  }
  --admission_depth_;
  metrics_.add(Metric::kTimeouts);
  throw ProtocolError(ErrorCode::kRetryLater,
                      "admission queue wait exceeded (" +
                          std::to_string(quotas.admission_wait.count()) + "ms)",
                      retry_hint_locked());
}

void SessionManager::release_admission(const std::string& tenant) {
  repro::MutexLock lock(mutex_);
  consume_reservation_locked(tenant);
  drain_admission_locked();  // the returned slot may admit a queued open
}

void SessionManager::consume_reservation_locked(const std::string& tenant) {
  if (reserved_ != 0) --reserved_;
  if (!tenant.empty()) {
    const auto it = reserved_by_tenant_.find(tenant);
    if (it != reserved_by_tenant_.end() && --(it->second) == 0)
      reserved_by_tenant_.erase(it);
  }
}

void SessionManager::credit_tenant_locked(const std::string& tenant) {
  if (tenant.empty()) return;
  const auto it = tenant_live_.find(tenant);
  if (it != tenant_live_.end() && --(it->second) == 0) tenant_live_.erase(it);
}

void SessionManager::note_removed_locked(const ManagedSession& managed) {
  credit_tenant_locked(managed.tenant);
  drain_admission_locked();
}

void SessionManager::drain_admission_locked() {
  bool granted_any = false;
  while (admission_depth_ != 0 &&
         sessions_.size() + reserved_ < limits_.max_sessions) {
    // Deficit round robin, quantum one: the tenant after the cursor gets
    // the freed slot, so one tenant's burst cannot starve the rest.
    auto it = admission_queues_.upper_bound(drr_cursor_);
    if (it == admission_queues_.end()) it = admission_queues_.begin();
    if (it == admission_queues_.end()) break;  // depth desynced; bail safe
    drr_cursor_ = it->first;
    auto& queue = it->second;
    std::shared_ptr<AdmissionWaiter> waiter;
    while (!queue.empty()) {
      waiter = std::move(queue.front());
      queue.pop_front();
      --admission_depth_;
      if (!waiter->failed) break;
      waiter.reset();
    }
    if (queue.empty()) admission_queues_.erase(it);
    if (waiter == nullptr) continue;
    waiter->granted = true;
    ++reserved_;
    if (!waiter->tenant.empty()) ++reserved_by_tenant_[waiter->tenant];
    metrics_.add(Metric::kGranted);
    granted_any = true;
  }
  if (granted_any) admission_cv_.notify_all();
}

void SessionManager::flush_admission_locked() {
  if (admission_queues_.empty()) return;
  for (auto& [tenant, queue] : admission_queues_) {
    for (const std::shared_ptr<AdmissionWaiter>& waiter : queue)
      waiter->failed = true;
  }
  admission_queues_.clear();
  admission_depth_ = 0;
  admission_cv_.notify_all();
}

bool SessionManager::begin_inflight_tell(const std::string& tenant) {
  if (tenant.empty() || limits_.quotas.max_inflight_tells_per_tenant == 0)
    return false;
  repro::MutexLock lock(mutex_);
  std::size_t& inflight = tenant_inflight_[tenant];
  if (inflight >= limits_.quotas.max_inflight_tells_per_tenant) {
    metrics_.add(Metric::kTellPushbacks);
    throw ProtocolError(ErrorCode::kRetryLater,
                        "tenant " + tenant + " tell quota reached (" +
                            std::to_string(
                                limits_.quotas.max_inflight_tells_per_tenant) +
                            ")",
                        limits_.retry_after_ms);
  }
  ++inflight;
  return true;
}

void SessionManager::end_inflight_tell(const std::string& tenant) {
  repro::MutexLock lock(mutex_);
  const auto it = tenant_inflight_.find(tenant);
  if (it != tenant_inflight_.end() && --(it->second) == 0)
    tenant_inflight_.erase(it);
}

// --- self-healing ------------------------------------------------------------

bool SessionManager::reseed(const std::string& host, std::uint16_t port) {
  if (shipper_ == nullptr || limits_.state_dir.empty()) {
    throw ProtocolError(ErrorCode::kBadRequest,
                        "reseed requires durability (--state-dir): local "
                        "journals are the resync source");
  }
  if (host.empty() || port == 0) {
    throw ProtocolError(ErrorCode::kBadRequest,
                        "reseed needs a follower host and port");
  }
  shipper_->retarget(host, port);
  const bool hot = shipper_->connect_now();
  log_info("reseed: follower {}:{} {}", host, port,
           hot ? "is hot" : "still catching up (redial pending)");
  return hot;
}

std::size_t SessionManager::demote_reset() {
  // Stop replicating first: a deposed primary must never ship its divergent
  // tail anywhere (also clears the fence so a later reseed can retarget).
  if (shipper_ != nullptr) shipper_->retarget("", 0);
  std::vector<std::pair<std::string, std::shared_ptr<ManagedSession>>> victims;
  {
    repro::MutexLock lock(mutex_);
    victims.swap(sessions_);
    metrics_.add(Metric::kClosed, victims.size());
    tenant_live_.clear();
    tombstones_.clear();
    flush_admission_locked();
  }
  for (auto& [id, managed] : victims) {
    // These journals are the divergent tail the new primary never
    // acknowledged. Keeping them would resurrect zombie sessions on the
    // next restart; the rejoined standby is rebuilt from the new primary's
    // history via resync instead.
    if (managed->wal != nullptr) {
      const std::string path = managed->wal->path();
      managed->wal.reset();
      (void)::unlink(path.c_str());
    }
    managed->session.cancel();
  }
  // Sweep journals no live session owned (eviction tombstones, journals
  // recovery could not replay): the rejoining standby starts clean.
  if (!limits_.state_dir.empty()) {
    try {
      for (const std::string& path : list_session_wals(limits_.state_dir)) {
        (void)::unlink(path.c_str());
      }
    } catch (const std::exception& error) {
      log_warn("demote: cannot sweep {}: {}", limits_.state_dir, error.what());
    }
  }
  std::size_t dropped_rows = 0;
  if (store_ != nullptr) dropped_rows = store_->reset();
  log_info("demote: dropped {} session(s) and {} store row(s); ready to "
           "re-seed as a standby",
           victims.size(), dropped_rows);
  return victims.size();
}

void SessionManager::cancel_all() {
  std::vector<std::pair<std::string, std::shared_ptr<ManagedSession>>> victims;
  {
    repro::MutexLock lock(mutex_);
    victims.swap(sessions_);
    metrics_.add(Metric::kClosed, victims.size());
    tenant_live_.clear();
    // Queued opens wake into retry_later: the daemon is going away, there
    // is no slot coming.
    flush_admission_locked();
  }
  // No terminal journal records here — an abandoned live journal is exactly
  // what recover() resurrects, so shutdown-with-live-sessions behaves like
  // a crash (by design: the daemon stopping is not the client giving up).
  for (auto& [id, managed] : victims) managed->session.cancel();
  // Destruction (thread joins) happens as `victims` goes out of scope.
}

std::size_t SessionManager::live() const {
  repro::MutexLock lock(mutex_);
  return sessions_.size();
}

MetricsSnapshot SessionManager::metrics() const {
  MetricsSnapshot snapshot;
  // Sampled outside mutex_: the shipper and the store have their own locks.
  if (shipper_ != nullptr) shipper_->sample(snapshot);
  if (store_ != nullptr) {
    const store::StoreStats stats = store_->stats();
    snapshot.set(Metric::kStoreRecords, stats.records);
    snapshot.set(Metric::kStoreTenants, stats.tenants);
    snapshot.set(Metric::kStoreIoErrors, stats.io_errors);
  }
  snapshot.set(Metric::kWalEnabled, !limits_.state_dir.empty());
  snapshot.set(Metric::kStoreEnabled, store_ != nullptr);
  snapshot.set(Metric::kQuotasEnabled, limits_.quotas.enabled());
  repro::MutexLock lock(mutex_);
  metrics_.add_to(snapshot);
  snapshot.set(Metric::kLiveSessions, sessions_.size());
  snapshot.set(Metric::kQueueDepth, admission_depth_);
  std::uint64_t finished = 0;
  for (const auto& [id, managed] : sessions_) {
    if (managed->session.finished()) ++finished;
  }
  snapshot.set(Metric::kFinished, finished);
  // One row per tenant with live, in-flight or queued state.
  for (const auto& [tenant, count] : tenant_live_) {  // NOLINT(reprolint-unordered-iteration)
    snapshot.tenants[tenant][kTenantSessions] = count;
  }
  for (const auto& [tenant, count] : tenant_inflight_) {  // NOLINT(reprolint-unordered-iteration)
    snapshot.tenants[tenant][kTenantInflightTells] = count;
  }
  for (const auto& [tenant, queue] : admission_queues_) {
    snapshot.tenants[tenant][kTenantQueued] = queue.size();
  }
  return snapshot;
}

Json SessionManager::session_rows(std::size_t max_rows) const {
  // Status-endpoint idle ages; never feed tuning results.
  const auto now = std::chrono::steady_clock::now();  // NOLINT(reprolint-wall-clock)
  Json rows = Json::array();
  repro::MutexLock lock(mutex_);
  for (std::size_t i = 0; i < sessions_.size() && i < max_rows; ++i) {
    const auto& [id, managed] = sessions_[i];
    Json row = Json::object();
    row.set("id", id);
    row.set("algorithm", managed->session.algorithm_name());
    row.set("budget", static_cast<std::uint64_t>(managed->session.budget()));
    row.set("asks", static_cast<std::uint64_t>(managed->session.asks()));
    row.set("tells", static_cast<std::uint64_t>(managed->session.tells()));
    row.set("finished", managed->session.finished());
    row.set("idle_ms", static_cast<std::uint64_t>(
                           std::chrono::duration_cast<std::chrono::milliseconds>(
                               now - managed->last_activity)
                               .count()));
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace repro::service
