#pragma once
// `tuned` server core: a portable blocking-socket JSON-lines server with no
// poll/epoll dependency. One accept thread owns the listener (short
// SO_RCVTIMEO ticks double as the idle-eviction heartbeat); each accepted
// connection is handled by a worker of a dedicated repro::ThreadPool, which
// bounds concurrent connections to the pool size (excess connections queue
// in the pool until a worker frees up). Sessions are decoupled from
// connections — one connection may interleave any number of sessions by id,
// which is how a small pool serves 64+ concurrent sessions.
//
// Shutdown. stop() closes the listener, shuts down every live connection
// socket (unblocking parked readers), and cancels all sessions.
// drain(deadline) is the graceful path: stop accepting, let existing
// clients finish until no sessions/connections remain or the deadline
// expires, then stop().

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/socket.hpp"
#include "common/thread_annotations.hpp"
#include "common/thread_pool.hpp"
#include "service/protocol.hpp"
#include "service/session_manager.hpp"
#include "store/results_store.hpp"

namespace repro::service {

struct ServerConfig {
  std::uint16_t port = 0;  ///< 0 = ephemeral (read back via port())
  std::size_t connection_threads = 8;
  SessionLimits limits;
  /// Accept/read timeout tick: shutdown latency and eviction granularity.
  std::chrono::milliseconds poll_interval{200};
  /// Reap a connection that completes no request frame for this long
  /// (slow-loris / dead-peer guard). The timer only runs while the server
  /// waits for a frame — a request parked in a blocking ask/result does not
  /// count as idle. 0 disables.
  std::chrono::milliseconds connection_idle_timeout{0};
  /// Socket send timeout (a peer that stops reading cannot park a worker in
  /// write() forever). 0 leaves the OS default (unbounded).
  std::chrono::milliseconds write_timeout{10000};
  /// Hard cap on concurrently-open connections; excess accepts are answered
  /// with a retry_later error frame and closed. 0 = unlimited (the worker
  /// pool still bounds concurrent *service*; queued connections just wait).
  std::size_t max_connections = 0;
  /// Start as a hot standby: refuse normal session ops with wrong_role and
  /// accept ship_* records from a primary instead, until a promote op (or
  /// promote()) flips the role. A primary (standby=false) conversely
  /// refuses ship_* with wrong_role (promote is an idempotent ack).
  bool standby = false;
  /// Deposed-primary rejoin: when this primary's shipper fences (its
  /// follower was promoted — this daemon lost a failover race), demote
  /// automatically into a clean standby (drop divergent journals + store)
  /// so the new primary can re-seed it with zero operator action. Off by
  /// default: a fenced primary then keeps serving standalone (the operator
  /// decides), which is also what the in-process failover tests expect.
  bool auto_rejoin = false;
  /// Directory of the persistent cross-tenant results store ("" disables
  /// it). The store is loaded before session recovery so replayed tells can
  /// feed it, and every acknowledged tell of a tenant-identified session
  /// (open with benchmark+arch) is appended. Exposed over the wire as
  /// store_stats / store_export / store_import; warm-started opens read it.
  std::string store_dir;
  /// Live-record capacity of the results store (FIFO eviction past it).
  std::size_t store_capacity = 1u << 20;
  std::string name = "tuned/1";
};

class TuneServer {
 public:
  explicit TuneServer(ServerConfig config = {});
  ~TuneServer();

  TuneServer(const TuneServer&) = delete;
  TuneServer& operator=(const TuneServer&) = delete;

  /// Recover journaled sessions (when limits.state_dir is set), then bind,
  /// listen, and spawn the accept thread. Throws std::runtime_error when
  /// the state dir is unusable or the port cannot be bound.
  void start();

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] bool running() const noexcept;
  [[nodiscard]] bool draining() const noexcept;

  /// Stop accepting; wait for live sessions and connections to end on
  /// their own. Returns true when the drain completed before the deadline
  /// (callers typically follow up with stop() either way).
  bool drain(std::chrono::milliseconds deadline);

  /// Hard stop: close listener + connections, cancel sessions, join
  /// everything. Idempotent.
  void stop();

  /// True while acting as a hot standby (refusing session ops).
  [[nodiscard]] bool standby() const noexcept;
  /// Flip a standby to primary (idempotent; also reachable over the wire
  /// via {"op":"promote"}). Shipped sessions are already live, so the
  /// promoted shard serves its first ask with no replay delay. Returns
  /// true when the role flipped, false when already primary (the wire
  /// reply then carries "already_primary" so a racing double-promote is
  /// observable).
  bool promote();
  /// Flip a (deposed) primary back to standby, dropping its divergent
  /// state via SessionManager::demote_reset(). Idempotent. Driven by
  /// auto_rejoin when the shipper fences; also callable directly.
  void demote();

  [[nodiscard]] SessionManager& sessions() noexcept { return *manager_; }
  [[nodiscard]] const SessionManager& sessions() const noexcept { return *manager_; }
  /// The daemon's results store; nullptr unless config.store_dir is set.
  [[nodiscard]] const std::shared_ptr<store::ResultsStore>& store() const noexcept {
    return store_;
  }
  [[nodiscard]] std::size_t active_connections() const;
  /// The daemon's status metrics: the session manager's plus this server's.
  [[nodiscard]] MetricsSnapshot metrics() const;
  /// `status` lists at most this many live sessions, oldest first, and
  /// counts the rest in sessions_omitted: the reply is also the router's
  /// health probe and must stay far below kMaxFrameBytes.
  static constexpr std::size_t kStatusSessionRows = 64;

 private:
  /// Per-connection protocol state. The tenant identity arrives once, in
  /// the hello, and is stamped into every open on this connection — quota
  /// identity is a property of the authenticated link, not of individual
  /// requests (a request-level field could be spoofed per-open).
  struct ConnState {
    bool hello_done = false;
    std::string tenant;
  };

  void accept_loop();
  void handle_connection(std::uint64_t id);
  /// Dispatch one parsed request; never throws (errors become frames).
  [[nodiscard]] Json dispatch(const Json& request, ConnState* conn, bool* fatal);

  ServerConfig config_;
  std::uint16_t port_ = 0;
  ListenSocket listener_;
  /// Created before (and shared with) the session manager; internally
  /// synchronized, so handlers use it without mutex_.
  std::shared_ptr<store::ResultsStore> store_;
  std::unique_ptr<SessionManager> manager_;
  std::unique_ptr<ThreadPool> pool_;
  /// The accept thread owns the blocking listener; a pool worker parked in
  /// accept() would starve connection handling on small pools.
  std::thread accept_thread_;  // NOLINT(reprolint-raw-thread)

  mutable repro::Mutex mutex_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Socket>> connections_
      GUARDED_BY(mutex_);
  std::uint64_t next_connection_id_ GUARDED_BY(mutex_) = 1;
  MetricSet metrics_;
  bool started_ GUARDED_BY(mutex_) = false;
  bool stopping_ GUARDED_BY(mutex_) = false;
  bool draining_ GUARDED_BY(mutex_) = false;
  bool standby_ GUARDED_BY(mutex_) = false;
};

}  // namespace repro::service
