#include "service/server.hpp"

#include <algorithm>
#include <utility>

#include "common/log.hpp"

namespace repro::service {
namespace {

/// "deadline_ms" request field -> absolute steady-clock deadline for the
/// blocking session ops. Deadline bookkeeping; never feeds tuning results.
[[nodiscard]] std::optional<std::chrono::steady_clock::time_point> request_deadline(
    const Json& request) {
  const std::optional<std::uint64_t> ms = optional_uint(request, "deadline_ms");
  if (!ms) return std::nullopt;
  return std::chrono::steady_clock::now() +
         std::chrono::milliseconds(static_cast<std::int64_t>(*ms));
}

}  // namespace

namespace {

// store_export resume cursor: hex(tenant flat key) + ":" + row offset. The
// flat key embeds unit-separator bytes, so it crosses the wire hex-encoded
// and the whole cursor stays an opaque printable token to clients.

[[nodiscard]] std::string encode_export_cursor(const std::string& flat,
                                               std::size_t row) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(flat.size() * 2 + 8);
  for (const char byte : flat) {
    const auto value = static_cast<unsigned char>(byte);
    out.push_back(kHex[value >> 4]);
    out.push_back(kHex[value & 0xF]);
  }
  out.push_back(':');
  out += std::to_string(row);
  return out;
}

[[nodiscard]] bool decode_export_cursor(const std::string& text,
                                        std::string& flat, std::size_t& row) {
  const std::size_t colon = text.find(':');
  if (colon == std::string::npos || colon == 0 || colon % 2 != 0) return false;
  const auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  flat.clear();
  for (std::size_t i = 0; i < colon; i += 2) {
    const int hi = nibble(text[i]);
    const int lo = nibble(text[i + 1]);
    if (hi < 0 || lo < 0) return false;
    flat.push_back(static_cast<char>((hi << 4) | lo));
  }
  if (colon + 1 >= text.size()) return false;
  row = 0;
  for (std::size_t i = colon + 1; i < text.size(); ++i) {
    if (text[i] < '0' || text[i] > '9') return false;
    row = row * 10 + static_cast<std::size_t>(text[i] - '0');
  }
  return true;
}

[[nodiscard]] std::shared_ptr<store::ResultsStore> make_store(const ServerConfig& config) {
  if (config.store_dir.empty()) return nullptr;
  store::StoreOptions options;
  options.dir = config.store_dir;
  options.capacity = config.store_capacity;
  return std::make_shared<store::ResultsStore>(std::move(options));
}

}  // namespace

TuneServer::TuneServer(ServerConfig config)
    : config_(std::move(config)),
      store_(make_store(config_)),
      manager_(std::make_unique<SessionManager>(config_.limits, store_)) {
  standby_ = config_.standby;
}

TuneServer::~TuneServer() { stop(); }

void TuneServer::start() {
  {
    repro::MutexLock lock(mutex_);
    if (started_) return;
    started_ = true;
  }
  if (store_ != nullptr) {
    // The store loads before session recovery: replayed tells re-append
    // their records (dedup makes that idempotent), and recovered sessions
    // may carry journaled warm-start priors that postdate the store's tail.
    store_->load();
    const store::StoreStats stats = store_->stats();
    log_info("tuned: results store at {}: {} records across {} tenants "
             "loaded{}",
             config_.store_dir, stats.loaded_records, stats.tenants,
             stats.torn_tail ? " (torn tail dropped)" : "");
  }
  if (!config_.limits.state_dir.empty()) {
    // Recover before the first client can connect: replayed sessions must
    // be visible (and their ids reserved) before any new open lands.
    const MetricsSnapshot stats = manager_->recover();
    log_info("tuned: recovery from {}: {} sessions restored ({} tells), "
             "{} failed, {} torn tails, {} closed discarded, {} tombstoned",
             config_.limits.state_dir, stats[Metric::kSessionsRecovered],
             stats[Metric::kTellsReplayed], stats[Metric::kSessionsFailed],
             stats[Metric::kTornTails], stats[Metric::kClosedDiscarded],
             stats[Metric::kEvictedTombstones]);
  }
  // Eager first ship connect (+ resync of recovered sessions) so `status`
  // reports replication health from the first probe. Failure just leaves
  // the shard degraded; the next ship attempt retries.
  manager_->connect_shipper();
  listener_ = ListenSocket::listen_loopback(config_.port);
  listener_.set_accept_timeout(config_.poll_interval);
  port_ = listener_.port();
  pool_ = std::make_unique<ThreadPool>(config_.connection_threads);
  // Dedicated accept thread by design (see the member's comment in the header).
  accept_thread_ = std::thread([this] { accept_loop(); });  // NOLINT(reprolint-raw-thread)
  log_info("tuned: listening on 127.0.0.1:{} ({} connection workers, "
           "max {} sessions{})",
           port_, config_.connection_threads, config_.limits.max_sessions,
           config_.standby ? ", standby" : "");
}

bool TuneServer::standby() const noexcept {
  repro::MutexLock lock(mutex_);
  return standby_;
}

bool TuneServer::promote() {
  {
    repro::MutexLock lock(mutex_);
    if (!standby_) return false;  // already primary: idempotent no-op
    standby_ = false;
    metrics_.add(Metric::kPromotions);
  }
  log_info("tuned: promoted to primary ({} live sessions, hot)", manager_->live());
  return true;
}

void TuneServer::demote() {
  {
    repro::MutexLock lock(mutex_);
    if (standby_) return;  // already a standby: idempotent no-op
    standby_ = true;
    metrics_.add(Metric::kDemotions);
  }
  // Outside the lock: demote_reset cancels sessions (joins search threads)
  // and truncates the store — none of it needs the server mutex.
  const std::size_t dropped = manager_->demote_reset();
  log_info("tuned: demoted to standby ({} divergent session(s) dropped); "
           "awaiting re-seed from the new primary",
           dropped);
}

bool TuneServer::running() const noexcept {
  repro::MutexLock lock(mutex_);
  return started_ && !stopping_;
}

bool TuneServer::draining() const noexcept {
  repro::MutexLock lock(mutex_);
  return draining_;
}

bool TuneServer::drain(std::chrono::milliseconds deadline) {
  {
    repro::MutexLock lock(mutex_);
    if (!started_ || stopping_) return true;
  }
  listener_.close();  // stop accepting; live connections keep running
  {
    // Flag set only after the listener is gone, so an observer of
    // draining()==true can rely on new connections being refused.
    repro::MutexLock lock(mutex_);
    draining_ = true;
  }
  log_info("tuned: draining ({} live sessions, {} connections)",
           manager_->live(), active_connections());
  // Shutdown deadline; never feeds tuning results.
  const auto stop_at = std::chrono::steady_clock::now() + deadline;  // NOLINT(reprolint-wall-clock)
  while (std::chrono::steady_clock::now() < stop_at) {  // NOLINT(reprolint-wall-clock)
    if (manager_->live() == 0 && active_connections() == 0) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return manager_->live() == 0 && active_connections() == 0;
}

void TuneServer::stop() {
  std::vector<std::shared_ptr<Socket>> sockets;
  {
    repro::MutexLock lock(mutex_);
    if (!started_ || stopping_) {
      if (!started_) return;
      // fallthrough for idempotent stop after a previous stop() finished
    }
    stopping_ = true;
    sockets.reserve(connections_.size());
    // Shutdown broadcast: every socket gets shut down, so the unordered
    // iteration order is immaterial.
    for (auto& [id, socket] : connections_) sockets.push_back(socket);  // NOLINT(reprolint-unordered-iteration)
  }
  listener_.close();
  for (const auto& socket : sockets) socket->shutdown_both();
  // Unblock handlers parked in session ask()/result() before joining them.
  manager_->cancel_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  pool_.reset();  // joins connection workers
}

std::size_t TuneServer::active_connections() const {
  repro::MutexLock lock(mutex_);
  return connections_.size();
}

MetricsSnapshot TuneServer::metrics() const {
  MetricsSnapshot snapshot = manager_->metrics();
  metrics_.add_to(snapshot);
  snapshot.set(Metric::kActiveConnections, active_connections());
  const std::uint64_t live = snapshot[Metric::kLiveSessions];
  snapshot.set(Metric::kSessionsOmitted,
               live > kStatusSessionRows ? live - kStatusSessionRows : 0);
  return snapshot;
}

void TuneServer::accept_loop() {
  while (true) {
    {
      repro::MutexLock lock(mutex_);
      if (stopping_) return;
    }
    Socket socket;
    const Socket::Io io = listener_.accept(&socket);
    if (io == Socket::Io::kTimeout) {
      // The accept tick doubles as the idle-eviction heartbeat. A standby
      // must not run its own idle clock: its sessions only see activity
      // when records arrive, so it evicts exactly when the primary ships a
      // ship_evict record (keeping both sides' tombstones in lockstep).
      if (!standby()) {
        (void)manager_->evict_idle();
        // Deposed-primary rejoin: a fence means our follower was promoted
        // — this daemon lost a failover race and its unshipped tail is
        // divergent. Demote into a clean standby so the new primary can
        // re-seed us, with zero operator action.
        if (config_.auto_rejoin &&
            manager_->ship_state() == ShipState::kFenced) {
          demote();
        }
      }
      continue;
    }
    if (io == Socket::Io::kClosed) return;  // stop() or drain() closed us
    if (io == Socket::Io::kError) continue;

    auto shared = std::make_shared<Socket>(std::move(socket));
    std::uint64_t id = 0;
    bool refused = false;
    {
      repro::MutexLock lock(mutex_);
      if (stopping_) continue;  // socket closes as `shared` dies
      if (config_.max_connections > 0 &&
          connections_.size() >= config_.max_connections) {
        metrics_.add(Metric::kConnectionsRefused);
        refused = true;
      } else {
        id = next_connection_id_++;
        connections_[id] = shared;
        metrics_.add(Metric::kConnectionsAccepted);
      }
    }
    if (refused) {
      // Admission pushback on the accept thread: one short best-effort
      // write, then close (as `shared` dies).
      shared->set_write_timeout(config_.poll_interval);
      (void)write_frame(*shared,
                        make_retry_later("connection limit reached",
                                         config_.limits.retry_after_ms));
      continue;
    }
    std::vector<std::function<void()>> task;
    task.emplace_back([this, id] {
      try {
        handle_connection(id);
      } catch (const std::exception& error) {
        log_error("tuned: connection {} handler failed: {}", id, error.what());
      }
      repro::MutexLock lock(mutex_);
      connections_.erase(id);
    });
    pool_->submit_batch(std::move(task));
  }
}

void TuneServer::handle_connection(std::uint64_t id) {
  std::shared_ptr<Socket> socket;
  {
    repro::MutexLock lock(mutex_);
    const auto it = connections_.find(id);
    if (it == connections_.end()) return;
    socket = it->second;
  }
  socket->set_read_timeout(config_.poll_interval);
  if (config_.write_timeout.count() > 0)
    socket->set_write_timeout(config_.write_timeout);
  FrameReader reader(*socket);
  ConnState conn;
  std::string line;
  // Liveness deadline bookkeeping; never feeds tuning results.
  auto last_frame = std::chrono::steady_clock::now();
  while (true) {
    {
      repro::MutexLock lock(mutex_);
      if (stopping_) return;
    }
    const FrameStatus status = reader.next(&line);
    if (status == FrameStatus::kTimeout) {
      // Slow-loris / dead-peer guard: a connection that cannot finish a
      // frame (silent or trickling bytes) is reaped; its sessions survive
      // and a reconnect resumes them (resume:true, seq idempotency).
      if (config_.connection_idle_timeout.count() > 0 &&
          std::chrono::steady_clock::now() - last_frame >
              config_.connection_idle_timeout) {
        log_info("tuned: reaping connection {} (no frame in {}ms)", id,
                 config_.connection_idle_timeout.count());
        metrics_.add(Metric::kConnectionsReaped);
        return;
      }
      continue;
    }
    if (status == FrameStatus::kClosed || status == FrameStatus::kMidFrameEof ||
        status == FrameStatus::kError)
      return;
    if (status == FrameStatus::kOversized) {
      // The stream cannot resynchronize after an oversized frame.
      // Protocol-error reply, not an ack: the request was never parsed, so
      // no durable state exists to fsync before answering.
      // NOLINTNEXTLINE(svclint-durability)
      (void)write_frame(*socket, make_error(ErrorCode::kOversizedFrame,
                                            "frame exceeds " +
                                                std::to_string(kMaxFrameBytes) +
                                                " bytes"));
      return;
    }

    Json request;
    try {
      request = Json::parse(line);
    } catch (const JsonError& error) {
      // Malformed-frame reply carries no durable state — the bytes never
      // became a request, so there is nothing to append.
      // NOLINTNEXTLINE(svclint-durability)
      if (!write_frame(*socket, make_error(ErrorCode::kMalformedFrame, error.what())))
        return;
      continue;
    }
    bool fatal = false;
    const Json response = dispatch(request, &conn, &fatal);
    if (!write_frame(*socket, response)) return;
    if (fatal) return;
    // Restart the liveness clock only after the response is out: time spent
    // blocked inside dispatch (a parked ask) must not count against the
    // client, and the clock measures the peer's progress, not ours.
    last_frame = std::chrono::steady_clock::now();
  }
}

Json TuneServer::dispatch(const Json& request, ConnState* conn, bool* fatal) {
  *fatal = false;
  try {
    const std::string op = require_string(request, "op");
    if (op == "hello") {
      const std::uint64_t version = require_uint(request, "version");
      if (version != static_cast<std::uint64_t>(kProtocolVersion)) {
        *fatal = true;
        return make_error(ErrorCode::kVersionMismatch,
                          "server speaks protocol version " +
                              std::to_string(kProtocolVersion) + ", client sent " +
                              std::to_string(version));
      }
      conn->hello_done = true;
      // Quota identity: optional, connection-scoped, stamped into every
      // open below. A repeated hello may change it (same trust model as
      // the identity itself — the loopback peer is who it says it is).
      if (const Json* field = request.find("tenant"))
        conn->tenant = field->as_string();
      Json response = make_ok();
      response.set("version", static_cast<std::uint64_t>(kProtocolVersion));
      response.set("server", config_.name);
      response.set("max_frame", static_cast<std::uint64_t>(kMaxFrameBytes));
      // Role in the handshake: a shipper that dials a promoted daemon can
      // fence before shipping a single record (see wal_ship.cpp).
      response.set("role", standby() ? "standby" : "primary");
      // Version-1 extension fields this server understands (see the
      // protocol header); old servers simply omit the list.
      Json features = Json::array();
      for (const char* feature :
           {"deadline_ms", "seq", "resume", "token", "retry_later", "cluster",
            "store", "quota"})
        features.push_back(feature);
      response.set("features", std::move(features));
      return response;
    }
    if (!conn->hello_done) {
      return make_error(ErrorCode::kHelloRequired,
                        "first frame must be a hello handshake");
    }
    if (op == "ping") return make_ok();
    const bool is_session_op = op == "open" || op == "ask" || op == "tell" ||
                               op == "result" || op == "close";
    const bool is_ship_op = op == "ship_open" || op == "ship_tell" ||
                            op == "ship_close" || op == "ship_evict";
    if (is_session_op && standby()) {
      return make_error(ErrorCode::kWrongRole,
                        "this daemon is a hot standby; session ops belong on "
                        "the primary (or promote this one first)");
    }
    if (is_ship_op && !standby()) {
      // A fenced ex-primary must never accept replication records; the
      // shipper on the other side fences itself on this answer.
      return make_error(ErrorCode::kWrongRole,
                        "this daemon is a primary; ship_* records belong on "
                        "a standby");
    }
    if (op == "ship_open") {
      const std::string session = require_string(request, "session");
      const Json* open_field = request.find("open");
      if (open_field == nullptr)
        return make_error(ErrorCode::kBadRequest, "ship_open requires 'open'");
      const OpenParams params = decode_open(*open_field);
      std::string token;
      if (const Json* field = request.find("token")) token = field->as_string();
      manager_->open_replica(session, params, token);
      return make_ok();
    }
    if (op == "ship_tell") {
      const std::string session = require_string(request, "session");
      const std::uint64_t seq = require_uint(request, "seq");
      const Json* config_field = request.find("config");
      if (config_field == nullptr)
        return make_error(ErrorCode::kBadRequest, "ship_tell requires 'config'");
      const tuner::Configuration config = decode_config(*config_field);
      const tuner::Evaluation evaluation = decode_evaluation(request);
      const SessionManager::TellAck ack =
          manager_->apply_replica_tell(session, seq, config, evaluation);
      Json response = make_ok();
      response.set("remaining", static_cast<std::uint64_t>(ack.remaining));
      if (ack.duplicate) response.set("duplicate", true);
      return response;
    }
    if (op == "ship_close") {
      manager_->close_replica(require_string(request, "session"));
      return make_ok();
    }
    if (op == "ship_evict") {
      manager_->evict_replica(require_string(request, "session"));
      return make_ok();
    }
    if (op == "promote") {
      // Idempotent: promoting a primary is a no-op ack, so a router that
      // lost the first response can safely retry. The reply distinguishes
      // the no-op ("already_primary") so a double-promote race is
      // observable without being an error.
      Json response = make_ok();
      if (!promote()) response.set("already_primary", true);
      response.set("role", "primary");
      return response;
    }
    if (op == "reseed") {
      // Router-orchestrated standby re-seeding: point this primary's
      // shipper at a replacement follower and resync it (store snapshot +
      // journals + digest gate). Primary-only: a standby has nothing to
      // ship.
      if (standby()) {
        return make_error(ErrorCode::kWrongRole,
                          "reseed belongs on the primary");
      }
      std::string host = "127.0.0.1";
      if (const Json* field = request.find("host")) host = field->as_string();
      const std::uint64_t port = require_uint(request, "port");
      if (port == 0 || port > 65535)
        return make_error(ErrorCode::kBadRequest, "reseed port out of range");
      const bool hot = manager_->reseed(host, static_cast<std::uint16_t>(port));
      Json response = make_ok();
      response.set("hot", hot);
      response.set("ship_state", to_string(manager_->ship_state()));
      return response;
    }
    // Store ops answer on any role: a standby's store is inspectable (and
    // seedable) without promoting it.
    if (op == "store_stats") {
      Json response = make_ok();
      response.set("store_enabled", store_ != nullptr);
      if (store_ != nullptr) {
        const store::StoreStats stats = store_->stats();
        response.set("dir", config_.store_dir);
        response.set("records", static_cast<std::uint64_t>(stats.records));
        response.set("tenants", static_cast<std::uint64_t>(stats.tenants));
        response.set("appends", stats.appends);
        response.set("duplicates", stats.duplicates);
        response.set("rejected", stats.rejected);
        response.set("evictions", stats.evictions);
        response.set("compactions", stats.compactions);
        response.set("io_errors", stats.io_errors);
        response.set("log_records", static_cast<std::uint64_t>(stats.log_records));
        response.set("log_bytes", stats.log_bytes);
        response.set("loaded_records",
                     static_cast<std::uint64_t>(stats.loaded_records));
        response.set("torn_tail", stats.torn_tail);
        response.set("digest", store_->digest());
      }
      return response;
    }
    if (op == "store_export") {
      if (store_ == nullptr)
        return make_error(ErrorCode::kBadRequest, "no results store configured");
      std::string benchmark;
      std::string arch;
      if (const Json* field = request.find("benchmark")) benchmark = field->as_string();
      if (const Json* field = request.find("arch")) arch = field->as_string();
      // Row cap keeps every page inside kMaxFrameBytes (a row is ~60 wire
      // bytes); "next_cursor" in the reply resumes the export past it, so
      // stores of any size stream out page by page.
      constexpr std::uint64_t kExportRowCap = 8192;
      const std::uint64_t limit =
          std::min(optional_uint(request, "limit").value_or(kExportRowCap),
                   kExportRowCap);
      std::string start_flat;
      std::size_t start_row = 0;
      if (const Json* field = request.find("cursor")) {
        if (!field->is_string() ||
            !decode_export_cursor(field->as_string(), start_flat, start_row)) {
          return make_error(ErrorCode::kBadRequest, "malformed export cursor");
        }
      }
      const store::ResultsStore::ExportPage page = store_->export_page(
          benchmark, arch, static_cast<std::size_t>(limit), start_flat, start_row);
      std::uint64_t rows = 0;
      for (const store::TenantSnapshot& tenant : page.tenants) rows += tenant.rows.size();
      Json response = make_ok();
      response.set("tenants", encode_tenants(page.tenants));
      response.set("records", rows);
      response.set("truncated", page.more);
      if (page.more) {
        response.set("next_cursor",
                     encode_export_cursor(page.next_tenant_flat, page.next_row));
      }
      return response;
    }
    if (op == "store_import") {
      if (store_ == nullptr)
        return make_error(ErrorCode::kBadRequest, "no results store configured");
      const std::vector<store::TenantSnapshot> tenants =
          decode_tenants(require(request, "tenants"));
      std::size_t offered = 0;
      for (const store::TenantSnapshot& tenant : tenants) offered += tenant.rows.size();
      try {
        const std::size_t imported = store_->import_tenants(tenants);
        // Replicate the seed batch to the hot standby; redelivery is safe
        // (the standby's store dedups), so ship even when everything was a
        // local duplicate — the standby may still be missing the rows.
        manager_->ship_store_import(tenants);
        Json response = make_ok();
        response.set("imported", static_cast<std::uint64_t>(imported));
        response.set("duplicates", static_cast<std::uint64_t>(offered - imported));
        return response;
      } catch (const store::IncompatibleSpaceError& error) {
        return make_error(ErrorCode::kBadRequest, error.what());
      }
    }
    if (op == "open") {
      {
        repro::MutexLock lock(mutex_);
        if (draining_ || stopping_) {
          return make_error(ErrorCode::kDraining, "server is draining");
        }
      }
      OpenParams params = decode_open(request);
      // The server stamps the quota identity from the connection's hello —
      // unconditionally, so a request-level "tenant" field can never spoof
      // another tenant's budget. The stamped value rides the WAL open
      // record and ship_open, surviving recovery and failover.
      params.tenant = conn->tenant;
      std::string token;
      if (const Json* field = request.find("token")) token = field->as_string();
      Json response = make_ok();
      response.set("session", manager_->open(params, token));
      return response;
    }
    if (op == "ask") {
      const std::string session = require_string(request, "session");
      bool resume = false;
      if (const Json* field = request.find("resume")) resume = field->as_bool();
      const auto config =
          manager_->ask(session, request_deadline(request), resume);
      Json response = make_ok();
      response.set("done", !config.has_value());
      if (config) response.set("config", encode_config(*config));
      return response;
    }
    if (op == "tell") {
      const std::string session = require_string(request, "session");
      const tuner::Evaluation evaluation = decode_evaluation(request);
      const std::uint64_t seq = optional_uint(request, "seq").value_or(0);
      const SessionManager::TellAck ack = manager_->tell(session, evaluation, seq);
      Json response = make_ok();
      response.set("remaining", static_cast<std::uint64_t>(ack.remaining));
      if (ack.duplicate) response.set("duplicate", true);
      return response;
    }
    if (op == "result") {
      const std::string session = require_string(request, "session");
      const SessionManager::ResultPayload payload =
          manager_->result(session, request_deadline(request));
      Json response = make_ok();
      response.set("result", encode_tune_result(payload.result, payload.counters));
      return response;
    }
    if (op == "close") {
      manager_->close(require_string(request, "session"));
      return make_ok();
    }
    if (op == "status") {
      const MetricsSnapshot snapshot = metrics();
      Json response = make_ok();
      response.set("server", config_.name);
      response.set("version", static_cast<std::uint64_t>(kProtocolVersion));
      {
        repro::MutexLock lock(mutex_);
        response.set("role", standby_ ? "standby" : "primary");
        response.set("draining", draining_ || stopping_);
      }
      response.set("ship_state", to_string(manager_->ship_state()));
      if (const std::string target = manager_->ship_target(); !target.empty())
        response.set("ship_target", target);
      snapshot.encode_into(response);
      response.set("sessions", manager_->session_rows(kStatusSessionRows));
      return response;
    }
    return make_error(ErrorCode::kUnknownOp, "unknown op: " + op);
  } catch (const ProtocolError& error) {
    if (error.code == ErrorCode::kRetryLater)
      return make_retry_later(error.what(), error.retry_after_ms);
    return make_error(error.code, error.what());
  } catch (const JsonError& error) {
    return make_error(ErrorCode::kBadRequest, error.what());
  } catch (const std::exception& error) {
    return make_error(ErrorCode::kInternal, error.what());
  }
}

}  // namespace repro::service
