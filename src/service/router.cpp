#include "service/router.hpp"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "common/log.hpp"

namespace repro::service {

const char* to_string(ShardHealth health) noexcept {
  switch (health) {
    case ShardHealth::kUp: return "up";
    case ShardHealth::kDegraded: return "degraded";
    case ShardHealth::kDown: return "down";
  }
  return "?";
}

std::uint64_t fnv1a64(std::string_view text) noexcept {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char byte : text) {
    hash ^= static_cast<unsigned char>(byte);
    hash *= 1099511628211ULL;
  }
  return hash;
}

namespace {

/// splitmix64 finalizer. Raw FNV-1a barely avalanches its high bits for
/// short, near-identical keys ("anon-0".."anon-15", "shard-0#r" vs
/// "shard-1#r"), which skews the consistent-hash ring badly enough that
/// every anonymous open can land on one shard. lower_bound keys on the
/// high bits, so mix before placing anything on the ring.
std::uint64_t mix64(std::uint64_t z) noexcept {
  z ^= z >> 30;
  z *= 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 27;
  z *= 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z;
}

std::uint64_t ring_hash(std::string_view text) noexcept {
  return mix64(fnv1a64(text));
}

}  // namespace

std::optional<std::pair<std::size_t, std::string>> split_session_id(
    const std::string& id, std::size_t shard_count) {
  const std::size_t colon = id.find(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= id.size())
    return std::nullopt;
  std::size_t shard = 0;
  for (std::size_t i = 0; i < colon; ++i) {
    const char c = id[i];
    if (c < '0' || c > '9') return std::nullopt;
    shard = shard * 10 + static_cast<std::size_t>(c - '0');
    if (shard >= shard_count && shard > 9999) return std::nullopt;  // overflow guard
  }
  if (shard >= shard_count) return std::nullopt;
  return std::make_pair(shard, id.substr(colon + 1));
}

namespace {

/// Bounded out-of-band RPC: connect, hello, one request, one reply, all
/// within `timeout`. Deliberately not service::Client — probes and promote
/// must never park past their budget on a wedged (e.g. SIGSTOPped) shard.
std::optional<Json> bounded_call(const std::string& host, std::uint16_t port,
                                 std::chrono::milliseconds timeout,
                                 const Json& request, const std::string& name) {
  Socket socket;
  try {
    socket = host == "127.0.0.1" ? Socket::connect_loopback(port)
                                 : Socket::connect_tcp(host, port);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  socket.set_read_timeout(std::chrono::milliseconds(50));
  socket.set_write_timeout(timeout);
  FrameReader reader(socket);
  // Probe deadline bookkeeping; never feeds tuning results.
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  const auto exchange = [&](const Json& frame) -> std::optional<Json> {
    if (!write_frame(socket, frame)) return std::nullopt;
    std::string line;
    while (true) {
      const FrameStatus status = reader.next(&line);
      if (status == FrameStatus::kOk) break;
      if (status == FrameStatus::kTimeout) {
        if (std::chrono::steady_clock::now() >= deadline) return std::nullopt;
        continue;
      }
      return std::nullopt;
    }
    try {
      return Json::parse(line);
    } catch (const JsonError&) {
      return std::nullopt;
    }
  };
  Json hello = Json::object();
  hello.set("op", "hello");
  hello.set("version", static_cast<std::uint64_t>(kProtocolVersion));
  hello.set("client", name);
  const std::optional<Json> shake = exchange(hello);
  if (!shake) return std::nullopt;
  const Json* ok = shake->find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) return std::nullopt;
  return exchange(request);
}

[[nodiscard]] Json ping_frame() {
  Json request = Json::object();
  request.set("op", "ping");
  return request;
}

[[nodiscard]] Json status_frame() {
  Json request = Json::object();
  request.set("op", "status");
  return request;
}

/// Classify a shard's status reply. Draining, fenced, or
/// shipping-disconnected primaries still serve, but should not take new
/// placements preferentially — callers treat kDegraded as placeable.
[[nodiscard]] ShardHealth classify(const Json& status) {
  const Json* draining = status.find("draining");
  if (draining != nullptr && draining->is_bool() && draining->as_bool())
    return ShardHealth::kDegraded;
  const MetricsSnapshot metrics = MetricsSnapshot::decode(status);
  if (metrics[Metric::kShipEnabled] != 0 &&
      (metrics[Metric::kShipFenced] != 0 || metrics[Metric::kShipConnected] == 0))
    return ShardHealth::kDegraded;
  // A re-seeding shard is serving but its follower has not caught up to
  // the live watermark yet — placeable, not preferred.
  const Json* ship_state = status.find("ship_state");
  if (ship_state != nullptr && ship_state->is_string() &&
      ship_state->as_string() == "catching_up")
    return ShardHealth::kDegraded;
  return ShardHealth::kUp;
}

}  // namespace

Router::Router(RouterConfig config) : config_(std::move(config)) {}

Router::~Router() { stop(); }

void Router::start() {
  {
    repro::MutexLock lock(mutex_);
    if (started_) return;
    if (config_.shards.empty())
      throw std::runtime_error("tunelb: at least one shard is required");
    started_ = true;
    shard_states_.clear();
    shard_states_.reserve(config_.shards.size());
    for (const ShardEndpoints& endpoints : config_.shards) {
      ShardState state;
      state.endpoints = endpoints;
      state.standby_available = endpoints.standby_port != 0;
      shard_states_.push_back(state);
    }
    spare_used_.assign(config_.spares.size(), false);
  }
  ring_.clear();
  ring_.reserve(config_.shards.size() * config_.ring_replicas);
  for (std::size_t shard = 0; shard < config_.shards.size(); ++shard) {
    for (std::size_t replica = 0; replica < config_.ring_replicas; ++replica) {
      const std::string node =
          "shard-" + std::to_string(shard) + "#" + std::to_string(replica);
      ring_.emplace_back(ring_hash(node), shard);
    }
  }
  std::sort(ring_.begin(), ring_.end());
  listener_ = ListenSocket::listen_loopback(config_.port);
  listener_.set_accept_timeout(config_.poll_interval);
  port_ = listener_.port();
  pool_ = std::make_unique<ThreadPool>(config_.connection_threads);
  accept_thread_ = std::thread([this] { accept_loop(); });  // NOLINT(reprolint-raw-thread)
  if (config_.probe_interval.count() > 0)
    probe_thread_ = std::thread([this] { probe_loop(); });  // NOLINT(reprolint-raw-thread)
  log_info("tunelb: listening on 127.0.0.1:{} ({} shards, {} workers)", port_,
           config_.shards.size(), config_.connection_threads);
}

void Router::stop() {
  std::vector<std::shared_ptr<Socket>> sockets;
  {
    repro::MutexLock lock(mutex_);
    if (!started_) return;
    stopping_ = true;
    sockets.reserve(connections_.size());
    // Shutdown broadcast: every socket gets shut down, order immaterial.
    for (auto& [id, socket] : connections_) sockets.push_back(socket);  // NOLINT(reprolint-unordered-iteration)
  }
  listener_.close();
  for (const auto& socket : sockets) socket->shutdown_both();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (probe_thread_.joinable()) probe_thread_.join();
  pool_.reset();
}

bool Router::running() const noexcept {
  repro::MutexLock lock(mutex_);
  return started_ && !stopping_;
}

std::vector<ShardSnapshot> Router::shards() const {
  repro::MutexLock lock(mutex_);
  std::vector<ShardSnapshot> out;
  out.reserve(shard_states_.size());
  for (std::size_t i = 0; i < shard_states_.size(); ++i) {
    const ShardState& state = shard_states_[i];
    ShardSnapshot snapshot;
    snapshot.index = i;
    snapshot.host = state.endpoints.primary_host;
    snapshot.port = state.endpoints.primary_port;
    snapshot.health = state.health;
    snapshot.has_standby = state.standby_available;
    snapshot.promotions = state.promotions;
    snapshot.reseeds = state.reseeds;
    snapshot.generation = state.generation;
    snapshot.sessions_placed = state.sessions_placed;
    out.push_back(snapshot);
  }
  return out;
}

void Router::probe_now() {
  for (std::size_t shard = 0; shard < config_.shards.size(); ++shard)
    probe_shard(shard);
}

void Router::probe_loop() {
  // Tick in small slices so stop() never waits a full probe interval.
  auto elapsed = std::chrono::milliseconds(0);
  const auto tick = std::chrono::milliseconds(50);
  while (true) {
    {
      repro::MutexLock lock(mutex_);
      if (stopping_) return;
    }
    std::this_thread::sleep_for(tick);
    elapsed += tick;
    if (elapsed < config_.probe_interval) continue;
    elapsed = std::chrono::milliseconds(0);
    for (std::size_t shard = 0; shard < config_.shards.size(); ++shard) {
      {
        repro::MutexLock lock(mutex_);
        if (stopping_) return;
      }
      probe_shard(shard);
    }
  }
}

void Router::probe_shard(std::size_t shard) {
  const Endpoint target = endpoint(shard);
  const std::optional<Json> status = bounded_call(
      target.host, target.port, config_.probe_timeout, status_frame(),
      config_.name + "-probe");
  bool cross_down_threshold = false;
  bool want_reseed = false;
  {
    repro::MutexLock lock(mutex_);
    ShardState& state = shard_states_[shard];
    if (state.generation != target.generation) return;  // failed over meanwhile
    if (status) {
      state.consecutive_probe_failures = 0;
      const ShardHealth next = classify(*status);
      if (next != state.health)
        log_info("tunelb: shard {} ({}:{}) is {}", shard, target.host,
                 target.port, to_string(next));
      state.health = next;
      bool spare_free = false;
      for (const bool used : spare_used_) spare_free = spare_free || !used;
      want_reseed = next != ShardHealth::kDown && !state.standby_available &&
                    !state.reseed_unsupported &&
                    (state.deposed_port != 0 || spare_free);
    } else {
      ++state.consecutive_probe_failures;
      cross_down_threshold = state.consecutive_probe_failures >=
                             config_.probe_failures_before_down;
    }
  }
  if (want_reseed) maybe_reseed(shard, target, *status);
  if (cross_down_threshold) (void)fail_over(shard, target.generation);
}

void Router::maybe_reseed(std::size_t shard, const Endpoint& primary,
                          const Json& status) {
  // The probe status doubles as the dedup guard: a resync already in
  // flight shows catching_up (leave it alone), and a reseed whose reply
  // was lost to a timeout shows hot with a ship_target (adopt it without
  // another RPC).
  std::string ship_state;
  if (const Json* field = status.find("ship_state");
      field != nullptr && field->is_string())
    ship_state = field->as_string();
  if (ship_state == "catching_up" || ship_state == "fenced") return;
  if (ship_state == "hot") {
    std::string target_text;
    if (const Json* field = status.find("ship_target");
        field != nullptr && field->is_string())
      target_text = field->as_string();
    const std::size_t colon = target_text.rfind(':');
    if (colon == std::string::npos || colon == 0) return;
    const int parsed = std::atoi(target_text.c_str() + colon + 1);
    if (parsed <= 0 || parsed > 65535) return;
    adopt_standby(shard, primary.generation, target_text.substr(0, colon),
                  static_cast<std::uint16_t>(parsed));
    return;
  }
  // Candidate hunt, deposed ex-primary first: it rejoins with most of the
  // journal already on disk and consumes no spare. Whoever is picked must
  // prove it is a standby before the primary is told to ship to it — a
  // spare that answers as a primary is somebody else's daemon.
  std::vector<SpareEndpoint> candidates;
  {
    repro::MutexLock lock(mutex_);
    const ShardState& state = shard_states_[shard];
    if (state.generation != primary.generation || state.standby_available)
      return;
    if (state.deposed_port != 0)
      candidates.push_back({state.deposed_host, state.deposed_port});
    for (std::size_t i = 0; i < config_.spares.size(); ++i)
      if (!spare_used_[i]) candidates.push_back(config_.spares[i]);
  }
  for (const SpareEndpoint& candidate : candidates) {
    const std::optional<Json> reply =
        bounded_call(candidate.host, candidate.port, config_.probe_timeout,
                     status_frame(), config_.name + "-probe");
    if (!reply) continue;
    const Json* ok = reply->find("ok");
    if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) continue;
    const Json* role = reply->find("role");
    if (role == nullptr || !role->is_string() || role->as_string() != "standby")
      continue;  // a deposed primary that has not demoted yet, or misconfig
    Json reseed = Json::object();
    reseed.set("op", "reseed");
    reseed.set("host", candidate.host);
    reseed.set("port", static_cast<std::uint64_t>(candidate.port));
    const std::optional<Json> seeded = bounded_call(
        primary.host, primary.port, config_.probe_timeout, reseed, config_.name);
    // Timeout mid-resync is fine: the next probe observes catching_up (wait)
    // or hot (adopt via ship_target above).
    if (!seeded) return;
    const Json* seeded_ok = seeded->find("ok");
    if (seeded_ok == nullptr || !seeded_ok->is_bool() || !seeded_ok->as_bool()) {
      // Typed refusal — this primary cannot resync (no state dir). Permanent
      // for this generation; stop asking every probe tick.
      const Json* message = seeded->find("message");
      log_warn("tunelb: shard {} refused reseed: {}", shard,
               message != nullptr && message->is_string()
                   ? message->as_string()
                   : std::string("(no message)"));
      repro::MutexLock lock(mutex_);
      ShardState& state = shard_states_[shard];
      if (state.generation == primary.generation) state.reseed_unsupported = true;
      return;
    }
    const Json* hot = seeded->find("hot");
    if (hot != nullptr && hot->is_bool() && hot->as_bool()) {
      adopt_standby(shard, primary.generation, candidate.host, candidate.port);
    }
    return;  // one reseed attempt per probe tick, hot or not
  }
}

void Router::adopt_standby(std::size_t shard, std::uint64_t observed_generation,
                           const std::string& host, std::uint16_t port) {
  repro::MutexLock lock(mutex_);
  ShardState& state = shard_states_[shard];
  if (state.generation != observed_generation || state.standby_available) return;
  state.endpoints.standby_host = host;
  state.endpoints.standby_port = port;
  state.standby_available = true;
  ++state.reseeds;
  if (state.deposed_port == port && state.deposed_host == host) {
    state.deposed_host.clear();
    state.deposed_port = 0;
  }
  for (std::size_t i = 0; i < config_.spares.size(); ++i) {
    if (!spare_used_[i] && config_.spares[i].port == port &&
        config_.spares[i].host == host)
      spare_used_[i] = true;
  }
  log_info("tunelb: shard {} re-seeded; standby {}:{} is hot", shard, host, port);
}

std::optional<std::size_t> Router::place(const std::string& key) const {
  const std::uint64_t hash = ring_hash(key);
  repro::MutexLock lock(mutex_);
  if (ring_.empty()) return std::nullopt;
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), std::make_pair(hash, std::size_t{0}),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t step = 0; step < ring_.size(); ++step, ++it) {
    if (it == ring_.end()) it = ring_.begin();
    const std::size_t shard = it->second;
    if (shard_states_[shard].health != ShardHealth::kDown) return shard;
  }
  return std::nullopt;
}

Router::Endpoint Router::endpoint(std::size_t shard) const {
  repro::MutexLock lock(mutex_);
  const ShardState& state = shard_states_[shard];
  Endpoint out;
  out.host = state.endpoints.primary_host;
  out.port = state.endpoints.primary_port;
  out.generation = state.generation;
  return out;
}

bool Router::fail_over(std::size_t shard, std::uint64_t observed_generation) {
  // One failover at a time, cluster-wide: concurrent observers of the same
  // dead shard serialize here, and the second one returns immediately on
  // the generation check. Probes inside the lock bound the critical
  // section by probe_timeout; failover is rare enough that stalling other
  // routing decisions for that long is an acceptable trade for simplicity.
  repro::MutexLock lock(mutex_);
  ShardState& state = shard_states_[shard];
  if (state.generation != observed_generation)
    return state.health != ShardHealth::kDown;
  // Re-probe before declaring death: the forwarding failure may have been
  // a single torn connection, not a dead process.
  const std::optional<Json> alive = bounded_call(
      state.endpoints.primary_host, state.endpoints.primary_port,
      config_.probe_timeout, ping_frame(), config_.name + "-probe");
  if (alive) {
    state.consecutive_probe_failures = 0;
    return true;  // transient; caller reconnects to the same endpoint
  }
  if (!state.standby_available) {
    if (state.health != ShardHealth::kDown)
      log_warn("tunelb: shard {} ({}:{}) is down and has no standby", shard,
               state.endpoints.primary_host, state.endpoints.primary_port);
    state.health = ShardHealth::kDown;
    ++state.generation;  // invalidate cached downstream clients
    return false;
  }
  Json promote = Json::object();
  promote.set("op", "promote");
  const std::optional<Json> promoted = bounded_call(
      state.endpoints.standby_host, state.endpoints.standby_port,
      config_.probe_timeout, promote, config_.name);
  const Json* ok = promoted ? promoted->find("ok") : nullptr;
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
    log_error("tunelb: shard {} primary AND standby unreachable; shard down",
              shard);
    state.health = ShardHealth::kDown;
    ++state.generation;
    return false;
  }
  log_warn("tunelb: shard {} primary {}:{} dead; promoted standby {}:{}", shard,
           state.endpoints.primary_host, state.endpoints.primary_port,
           state.endpoints.standby_host, state.endpoints.standby_port);
  // Remember the deposed primary: if it comes back and demotes itself
  // (tuned --auto-rejoin), the prober re-attaches it as the replacement
  // standby without consuming a spare.
  state.deposed_host = state.endpoints.primary_host;
  state.deposed_port = state.endpoints.primary_port;
  state.endpoints.primary_host = state.endpoints.standby_host;
  state.endpoints.primary_port = state.endpoints.standby_port;
  state.endpoints.standby_port = 0;
  state.standby_available = false;
  state.reseed_unsupported = false;  // the new primary gets its own verdict
  state.health = ShardHealth::kUp;
  state.consecutive_probe_failures = 0;
  ++state.promotions;
  ++state.generation;
  return true;
}

void Router::accept_loop() {
  while (true) {
    {
      repro::MutexLock lock(mutex_);
      if (stopping_) return;
    }
    Socket socket;
    const Socket::Io io = listener_.accept(&socket);
    if (io == Socket::Io::kTimeout) continue;
    if (io == Socket::Io::kClosed) return;
    if (io == Socket::Io::kError) continue;
    auto shared = std::make_shared<Socket>(std::move(socket));
    std::uint64_t id = 0;
    {
      repro::MutexLock lock(mutex_);
      if (stopping_) continue;
      id = next_connection_id_++;
      connections_[id] = shared;
    }
    std::vector<std::function<void()>> task;
    task.emplace_back([this, id] {
      try {
        handle_connection(id);
      } catch (const std::exception& error) {
        log_error("tunelb: connection {} handler failed: {}", id, error.what());
      }
      repro::MutexLock lock(mutex_);
      connections_.erase(id);
    });
    pool_->submit_batch(std::move(task));
  }
}

void Router::handle_connection(std::uint64_t id) {
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
  Downstreams downstreams;
  bool hello_done = false;
  std::string line;
  while (true) {
    {
      repro::MutexLock lock(mutex_);
      if (stopping_) return;
    }
    const FrameStatus status = reader.next(&line);
    if (status == FrameStatus::kTimeout) continue;
    if (status == FrameStatus::kClosed || status == FrameStatus::kMidFrameEof ||
        status == FrameStatus::kError)
      return;
    if (status == FrameStatus::kOversized) {
      (void)write_frame(*socket,
                        make_error(ErrorCode::kOversizedFrame,
                                   "frame exceeds " +
                                       std::to_string(kMaxFrameBytes) + " bytes"));
      return;
    }
    Json request;
    try {
      request = Json::parse(line);
    } catch (const JsonError& error) {
      if (!write_frame(*socket, make_error(ErrorCode::kMalformedFrame, error.what())))
        return;
      continue;
    }
    bool fatal = false;
    const Json response = dispatch(request, downstreams, &hello_done, &fatal);
    if (!write_frame(*socket, response)) return;
    if (fatal) return;
  }
}

Json Router::dispatch(const Json& request, Downstreams& downstreams,
                      bool* hello_done, bool* fatal) {
  *fatal = false;
  try {
    const std::string op = require_string(request, "op");
    if (op == "hello") {
      const std::uint64_t version = require_uint(request, "version");
      if (version != static_cast<std::uint64_t>(kProtocolVersion)) {
        *fatal = true;
        return make_error(ErrorCode::kVersionMismatch,
                          "router speaks protocol version " +
                              std::to_string(kProtocolVersion) + ", client sent " +
                              std::to_string(version));
      }
      *hello_done = true;
      // Tenant identity is connection-scoped: re-sent on every downstream
      // hello so shards quota the real tenant, not the router. A changed
      // identity drops cached downstream clients (they carry the old one).
      std::string tenant;
      if (const Json* field = request.find("tenant");
          field != nullptr && field->is_string())
        tenant = field->as_string();
      if (tenant != downstreams.tenant) {
        downstreams.tenant = tenant;
        downstreams.slots.clear();
      }
      Json response = make_ok();
      response.set("version", static_cast<std::uint64_t>(kProtocolVersion));
      response.set("server", config_.name);
      response.set("max_frame", static_cast<std::uint64_t>(kMaxFrameBytes));
      Json features = Json::array();
      for (const char* feature : {"deadline_ms", "seq", "resume", "token",
                                  "retry_later", "cluster", "quota"})
        features.push_back(feature);
      response.set("features", std::move(features));
      return response;
    }
    if (!*hello_done)
      return make_error(ErrorCode::kHelloRequired,
                        "first frame must be a hello handshake");
    if (op == "ping") return make_ok();
    if (op == "status") return aggregate_status();
    if (op == "open") return route_open(request, downstreams);
    if (op == "ship_open" || op == "ship_tell" || op == "ship_close" ||
        op == "ship_evict" || op == "promote") {
      return make_error(ErrorCode::kWrongRole,
                        "a router accepts client session ops, not replication "
                        "records; ship to a standby shard directly");
    }
    if (op == "reseed") {
      return make_error(ErrorCode::kWrongRole,
                        "re-seeding is driven by the router's own prober; to "
                        "attach a follower manually, send reseed to the shard "
                        "primary directly");
    }
    if (op == "store_stats" || op == "store_export" || op == "store_import") {
      return route_store(op, request, downstreams);
    }
    if (op == "ask" || op == "tell" || op == "result" || op == "close") {
      const std::string namespaced = require_string(request, "session");
      const auto split = split_session_id(namespaced, config_.shards.size());
      if (!split)
        return make_error(ErrorCode::kUnknownSession,
                          "session id '" + namespaced +
                              "' is not a '<shard>:<sid>' id of this cluster");
      // close is replay-safe through a failover: a re-delivered close
      // answers unknown_session, which retrying clients already treat as
      // close-succeeded.
      bool idempotent = op == "result" || op == "close";
      if (op == "ask") {
        const Json* resume = request.find("resume");
        idempotent = resume != nullptr && resume->is_bool() && resume->as_bool();
      } else if (op == "tell") {
        idempotent = optional_uint(request, "seq").value_or(0) > 0;
      }
      Json forwarded = request;
      forwarded.set("session", split->second);
      return forward(split->first, std::move(forwarded), idempotent, downstreams);
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

Json Router::forward(std::size_t shard, Json request, bool idempotent,
                     Downstreams& downstreams) {
  // Attempt 0 is the normal path; attempt 1 runs only after a failover
  // (idempotent requests), against the shard's possibly-new endpoint.
  for (std::size_t attempt = 0; attempt < 2; ++attempt) {
    const Endpoint target = endpoint(shard);
    DownstreamSlot& slot = downstreams.slots[shard];
    try {
      if (slot.client == nullptr || slot.generation != target.generation ||
          !slot.client->connected()) {
        ClientConfig config;
        config.host = target.host;
        config.port = target.port;
        config.name = config_.name;
        config.tenant = downstreams.tenant;
        slot.client = std::make_unique<Client>(config);
        slot.generation = target.generation;
        slot.client->connect();
      }
      Json response = slot.client->call(request);
      if (attempt > 0) {
        repro::MutexLock lock(mutex_);
        ++reroutes_;
      }
      return response;
    } catch (const ClientError&) {
      slot.client.reset();
      const bool recovered = fail_over(shard, target.generation);
      if (!idempotent) {
        return make_error(
            ErrorCode::kInternal,
            "connection to shard " + std::to_string(shard) +
                " lost mid-request; the request may or may not have been "
                "applied (non-idempotent, not replayed)");
      }
      if (!recovered || attempt + 1 >= 2) {
        return make_retry_later(
            "shard " + std::to_string(shard) + " is unavailable",
            /*retry_after_ms=*/250);
      }
      // loop: retry on the (promoted or re-probed) endpoint
    }
    // ProtocolError from the shard propagates to dispatch()'s catch, which
    // re-encodes it (retry_later hint preserved) for the client.
  }
  return make_retry_later("shard " + std::to_string(shard) + " is unavailable",
                          /*retry_after_ms=*/250);
}

Json Router::route_open(const Json& request, Downstreams& downstreams) {
  std::string token;
  if (const Json* field = request.find("token")) token = field->as_string();
  std::string key = token;
  if (key.empty()) {
    repro::MutexLock lock(mutex_);
    key = "anon-" + std::to_string(anon_opens_++);
  }
  // A token-less open cannot be replayed, so its placement gets exactly one
  // shot; a tokened open re-places (skipping shards that just went down)
  // until it finds a live shard or the cluster is exhausted.
  const std::size_t placements = token.empty() ? 1 : config_.shards.size();
  for (std::size_t round = 0; round < placements; ++round) {
    const std::optional<std::size_t> shard = place(key);
    if (!shard) break;
    Json response = forward(*shard, request, /*idempotent=*/!token.empty(),
                            downstreams);
    const Json* ok = response.find("ok");
    const bool succeeded = ok != nullptr && ok->is_bool() && ok->as_bool();
    if (succeeded) {
      const Json* sid = response.find("session");
      if (sid != nullptr && sid->is_string())
        response.set("session", std::to_string(*shard) + ":" + sid->as_string());
      repro::MutexLock lock(mutex_);
      ++shard_states_[*shard].sessions_placed;
      return response;
    }
    // Re-place only when this shard just failed over to nothing (marked
    // down). Typed shard answers — admission retry_later included — are
    // the shard's verdict and propagate as-is.
    {
      repro::MutexLock lock(mutex_);
      if (shard_states_[*shard].health != ShardHealth::kDown) return response;
    }
  }
  return make_retry_later("no shard available for placement",
                          /*retry_after_ms=*/500);
}

Json Router::route_store(const std::string& op, const Json& request,
                         Downstreams& downstreams) {
  // A tenant's history lives on whichever shard served its sessions, so the
  // router fans store ops out to every primary: imports land on all shards
  // (first-value-wins dedup makes the broadcast idempotent and replay-safe),
  // stats sum across the cluster, and exports page through the shards
  // sequentially (re-importing the concatenated pages dedups back to the
  // union).
  if (op == "store_export") return route_store_export(request, downstreams);
  std::uint64_t imported = 0, import_duplicates = 0, records = 0, tenants = 0;
  bool any_enabled = false, any_torn_tail = false;
  // Per-shard digest/dir stay in the "shards" breakdown; every additive
  // counter is summed and the flags are ORed, so a router-pointed client
  // sees cluster totals (and a torn tail on any shard).
  static constexpr const char* kStatCounters[] = {
      "appends",     "duplicates",  "rejected",    "evictions",
      "compactions", "io_errors",   "log_records", "log_bytes",
      "loaded_records"};
  std::uint64_t stat_totals[std::size(kStatCounters)] = {};
  Json per_shard = Json::array();
  for (std::size_t shard = 0; shard < config_.shards.size(); ++shard) {
    Json reply = forward(shard, request, /*idempotent=*/true, downstreams);
    const Json* ok = reply.find("ok");
    if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) return reply;
    const auto add = [&reply](std::uint64_t& total, const char* key) {
      const Json* field = reply.find(key);
      if (field != nullptr && field->is_number()) total += field->as_uint64();
    };
    if (op == "store_import") {
      add(imported, "imported");
      add(import_duplicates, "duplicates");
      continue;
    }
    const auto flag = [&reply](const char* key) {
      const Json* field = reply.find(key);
      return field != nullptr && field->is_bool() && field->as_bool();
    };
    any_enabled = any_enabled || flag("store_enabled");
    any_torn_tail = any_torn_tail || flag("torn_tail");
    add(records, "records");
    add(tenants, "tenants");
    for (std::size_t i = 0; i < std::size(kStatCounters); ++i)
      add(stat_totals[i], kStatCounters[i]);
    reply.set("shard", static_cast<std::uint64_t>(shard));
    per_shard.push_back(std::move(reply));
  }
  Json response = make_ok();
  if (op == "store_import") {
    response.set("imported", imported);
    response.set("duplicates", import_duplicates);
  } else {
    response.set("store_enabled", any_enabled);
    response.set("torn_tail", any_torn_tail);
    response.set("records", records);
    response.set("tenants", tenants);
    for (std::size_t i = 0; i < std::size(kStatCounters); ++i)
      response.set(kStatCounters[i], stat_totals[i]);
    response.set("shards", std::move(per_shard));
  }
  return response;
}

Json Router::route_store_export(const Json& request, Downstreams& downstreams) {
  // Composite cursor "<shard>|<daemon cursor>". One router page carries at
  // most one daemon page (each already sized to the daemon's frame budget),
  // so the merged stream stays inside kMaxFrameBytes no matter how many
  // shards hold rows. An explicit `limit` is a total-row budget: shards are
  // drained in index order until it is spent.
  std::size_t start_shard = 0;
  std::string sub_cursor;
  if (const Json* field = request.find("cursor")) {
    bool valid = field->is_string();
    if (valid) {
      const std::string text = field->as_string();
      const std::size_t bar = text.find('|');
      valid = bar != std::string::npos && bar > 0;
      for (std::size_t i = 0; valid && i < bar; ++i) {
        if (text[i] < '0' || text[i] > '9') valid = false;
        start_shard = start_shard * 10 + static_cast<std::size_t>(text[i] - '0');
      }
      if (valid && start_shard >= config_.shards.size()) valid = false;
      if (valid) sub_cursor = text.substr(bar + 1);
    }
    if (!valid) {
      return make_error(ErrorCode::kBadRequest, "malformed export cursor");
    }
  }
  const std::optional<std::uint64_t> limit = optional_uint(request, "limit");
  std::uint64_t remaining = limit.value_or(0);

  Json exported = Json::array();
  std::uint64_t records = 0;
  bool more = false;
  std::string next_cursor;
  for (std::size_t shard = start_shard; shard < config_.shards.size(); ++shard) {
    Json sub_request = Json::object();
    sub_request.set("op", "store_export");
    for (const char* key : {"benchmark", "arch"}) {
      if (const Json* field = request.find(key)) sub_request.set(key, *field);
    }
    if (limit) sub_request.set("limit", remaining);
    if (!sub_cursor.empty()) sub_request.set("cursor", sub_cursor);
    sub_cursor.clear();
    Json reply = forward(shard, sub_request, /*idempotent=*/true, downstreams);
    const Json* ok = reply.find("ok");
    if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) return reply;
    std::uint64_t got = 0;
    if (const Json* field = reply.find("records");
        field != nullptr && field->is_number()) {
      got = field->as_uint64();
    }
    records += got;
    if (const Json* shard_tenants = reply.find("tenants");
        shard_tenants != nullptr && shard_tenants->is_array()) {
      for (const Json& tenant : shard_tenants->as_array())
        exported.push_back(tenant);
    }
    if (const Json* next = reply.find("next_cursor");
        next != nullptr && next->is_string()) {
      more = true;
      next_cursor = std::to_string(shard) + "|" + next->as_string();
      break;
    }
    if (limit) {
      remaining = remaining > got ? remaining - got : 0;
      if (remaining == 0) {
        // Budget spent at a shard boundary: later shards may hold more, so
        // hand back a resume point instead of silently stopping.
        if (shard + 1 < config_.shards.size()) {
          more = true;
          next_cursor = std::to_string(shard + 1) + "|";
        }
        break;
      }
      continue;
    }
    if (got > 0 && shard + 1 < config_.shards.size()) {
      // No budget given: bound the page to this shard's daemon page and
      // resume at the next shard.
      more = true;
      next_cursor = std::to_string(shard + 1) + "|";
      break;
    }
  }
  Json response = make_ok();
  response.set("tenants", std::move(exported));
  response.set("records", records);
  response.set("truncated", more);
  if (more) response.set("next_cursor", next_cursor);
  return response;
}

Json Router::aggregate_status() {
  // Cluster rollup: each reachable shard's own reply is embedded and merged
  // into one snapshot by the metrics-table walk (numbers sum, flags OR,
  // tenant rows merge by tenant).
  MetricsSnapshot cluster;
  Json shards = Json::array();
  for (const ShardSnapshot& snapshot : this->shards()) {
    Json entry = Json::object();
    entry.set("index", static_cast<std::uint64_t>(snapshot.index));
    entry.set("endpoint",
              snapshot.host + ":" + std::to_string(snapshot.port));
    entry.set("health", to_string(snapshot.health));
    entry.set("has_standby", snapshot.has_standby);
    entry.set("promotions", static_cast<std::uint64_t>(snapshot.promotions));
    entry.set("reseeds", static_cast<std::uint64_t>(snapshot.reseeds));
    entry.set("sessions_placed",
              static_cast<std::uint64_t>(snapshot.sessions_placed));
    if (snapshot.health != ShardHealth::kDown) {
      // Bounded out-of-band call, never the pooled downstream Client: a
      // wedged (SIGSTOPped, partitioned) shard that the prober has not yet
      // marked down must not park status aggregation past the probe budget.
      const std::optional<Json> reply =
          bounded_call(snapshot.host, snapshot.port, config_.probe_timeout,
                       status_frame(), config_.name);
      const Json status = reply.value_or(Json::object());
      const Json* ok = status.find("ok");
      if (ok != nullptr && ok->is_bool() && ok->as_bool()) {
        cluster.merge(MetricsSnapshot::decode(status));
        entry.set("status", status);
      } else {
        const Json* message = status.find("message");
        entry.set("probe_error",
                  message != nullptr && message->is_string()
                      ? message->as_string()
                      : std::string("status call failed"));
      }
    }
    shards.push_back(std::move(entry));
  }
  Json response = make_ok();
  response.set("server", config_.name);
  response.set("version", static_cast<std::uint64_t>(kProtocolVersion));
  response.set("role", "router");
  response.set("shards", std::move(shards));
  {
    // The router reports its own client connections, not the shards'.
    repro::MutexLock lock(mutex_);
    response.set("reroutes", static_cast<std::uint64_t>(reroutes_));
    cluster.set(Metric::kActiveConnections, connections_.size());
  }
  cluster.encode_into(response);
  return response;
}

}  // namespace repro::service
