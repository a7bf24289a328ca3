#pragma once

// abtd: the persistent solver daemon. An acceptor thread per listener
// (Unix-domain socket and/or loopback TCP) performs admission control at
// accept time and enqueues accepted connections into a bounded queue; a
// small crew of dispatcher threads pops requests and drives each one
// through engine::execute, the request path abt_solve runs locally —
// solver cells fan out over the shared work-stealing pool through the one
// cell runner, races go through engine::race — under a per-request
// core::RunContext carrying the (possibly shrunk) budget and a per-request
// cancel token chained with the server's shutdown source.
//
// Admission policy (accept-fast / shed-fast):
//   load = queued + executing requests, sampled at accept.
//   load <= queue_soft          -> full requested budget.
//   queue_soft < load           -> budget scaled by
//       max(min_budget_factor, 1 - (load - soft) / (cap - soft));
//       the response carries the effective budget in a `budget-ms` header
//       flag and its rows are anytime incumbents with certified
//       best_bound / gap.
//   queued >= queue_cap         -> the connection is answered with one
//       `overloaded` frame and closed without reading the request.
// The queue is therefore never unbounded, and a client can always tell
// which of the three regimes served it.
//
// Responses for identical canonical requests are served bit-identically
// from the SolutionCache (flag `cached=1`); shrunk-budget responses are
// never inserted, so degraded answers cannot shadow full ones. A request
// that hits its canonical entry also leaves a raw alias (verb, header
// flags, exact payload bytes), checked before any parse, so a
// byte-identical repeat is answered without parsing or canonicalizing.

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <condition_variable>
#include <mutex>

#include "core/run_context.hpp"
#include "core/solver.hpp"
#include "service/cache.hpp"
#include "service/protocol.hpp"

namespace abt::service {

struct ServiceConfig {
  std::string socket_path;  ///< Unix-domain listener ("" = off).
  int tcp_port = -1;        ///< Loopback TCP listener (-1 = off, 0 = any).
  int dispatchers = 2;      ///< Request workers (floor 2). `cancel` is
                            ///< served by a free dispatcher, so it lands
                            ///< promptly only while fewer than
                            ///< `dispatchers` solves are in flight; with
                            ///< every dispatcher busy it waits in the
                            ///< queue like any other request.
  int threads = 0;          ///< Cell threads, dispatcher included (0 = all).
  int queue_soft = 4;       ///< Load beyond this shrinks budgets.
  int queue_cap = 16;       ///< Queued beyond this sheds `overloaded`.
  double default_budget_ms = 500.0;  ///< Stands in for "unlimited" when
                                     ///< admission control must shrink.
  double min_budget_factor = 0.1;    ///< Shrink floor.
  int max_progress = 16;             ///< Cap on per-request `progress` K.
  std::size_t cache_entries = 512;
  std::size_t cache_bytes = std::size_t{16} << 20;
};

/// Point-in-time service counters (the `stats` verb serializes these).
struct ServiceStats {
  std::uint64_t accepted = 0;
  std::uint64_t served = 0;    ///< Final ok frames written.
  std::uint64_t errors = 0;    ///< Final error frames written.
  std::uint64_t shed = 0;      ///< Overloaded frames written.
  std::uint64_t shrunk = 0;    ///< Requests served under a shrunk budget.
  std::uint64_t cancelled = 0; ///< Cancel verbs that found their target.
  int queue_depth = 0;
  int in_flight = 0;
  CacheStats cache;
};

class Server {
 public:
  Server(const core::SolverRegistry& registry, ServiceConfig config);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the configured listeners and starts the acceptor/dispatcher
  /// threads. False (with `error`) when no listener is configured or a
  /// bind fails; the server is then fully stopped.
  [[nodiscard]] bool start(std::string* error);

  /// Stops accepting, cancels in-flight runs (they return their anytime
  /// incumbents), sheds still-queued connections with `overloaded` and
  /// joins every thread. Idempotent.
  void stop();

  [[nodiscard]] bool running() const;
  /// Resolved TCP port (meaningful after start when tcp_port >= 0).
  [[nodiscard]] int tcp_port() const { return resolved_port_; }
  /// The primary client address: the Unix socket when configured, the
  /// resolved TCP endpoint otherwise.
  [[nodiscard]] Address address() const;
  [[nodiscard]] ServiceStats stats() const;

  /// ABT_AUDIT walk over the request queue bounds and the cache's
  /// LRU/index mirror. No-op in release builds.
  void audit_invariants() const;

 private:
  using Flags = std::vector<std::pair<std::string, std::string>>;

  struct Pending {
    Connection conn;
    double factor = 1.0;  ///< Admission budget factor, sampled at accept.
  };

  [[nodiscard]] double admission_factor(int load) const;
  [[nodiscard]] int listen_unix(std::string* error);
  [[nodiscard]] int listen_tcp(std::string* error);
  void accept_loop(int listen_fd);
  void dispatch_loop();
  void serve(Connection& conn, double factor);
  void handle_solve(Connection& conn, SolveRequest request,
                    const std::string& alias, double factor);
  void handle_cancel(Connection& conn, const Frame& frame);
  void handle_stats(Connection& conn);
  /// Writes the final ok frame and counts it as served.
  void send_ok(Connection& conn, std::string payload, Flags flags = {});
  /// send_ok for a cache hit: the stored exit code plus `cached=1`.
  void send_cached(Connection& conn, SolutionCache::Entry entry);
  void send_overloaded(Connection& conn, int queued);
  void send_error(Connection& conn, const std::string& message);
  void audit_queue_locked() const;

  const core::SolverRegistry& registry_;
  ServiceConfig config_;
  SolutionCache cache_;

  std::vector<int> listen_fds_;
  int resolved_port_ = -1;
  std::vector<std::thread> acceptors_;
  std::vector<std::thread> dispatchers_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  core::CancelSource stop_source_;

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;
  int in_flight_ = 0;

  /// A cancellable in-flight request; `serial` tells id reusers apart.
  struct Active {
    std::uint64_t serial = 0;
    core::CancelSource source;
  };
  mutable std::mutex active_mutex_;
  std::map<std::string, Active> active_;
  std::atomic<std::uint64_t> next_serial_{0};

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> shrunk_{0};
  std::atomic<std::uint64_t> cancelled_{0};
};

}  // namespace abt::service
