#include "service/server.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <sstream>
#include <utility>

#include "core/assert.hpp"
#include "core/text.hpp"
#include "engine/runner.hpp"

namespace abt::service {

namespace {

std::string progress_payload(const core::Incumbent& incumbent) {
  std::ostringstream os;
  // Round-trip digits, as in the final payload: at the stream's default
  // six, two strictly improving costs can print equal.
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\"cost\": " << incumbent.cost
     << ", \"elapsed_ms\": " << incumbent.elapsed_ms << ", \"schedule\": ";
  engine::write_json_string(os, incumbent.schedule);
  os << "}\n";
  return os.str();
}

}  // namespace

Server::Server(const core::SolverRegistry& registry, ServiceConfig config)
    : registry_(registry),
      config_(std::move(config)),
      cache_(config_.cache_entries, config_.cache_bytes) {
  if (config_.dispatchers < 2) config_.dispatchers = 2;
  if (config_.queue_cap < 1) config_.queue_cap = 1;
  if (config_.queue_soft < 0) config_.queue_soft = 0;
  if (config_.queue_soft > config_.queue_cap) {
    config_.queue_soft = config_.queue_cap;
  }
  if (config_.min_budget_factor <= 0.0 || config_.min_budget_factor > 1.0) {
    config_.min_budget_factor = 0.1;
  }
  if (config_.max_progress < 1) config_.max_progress = 1;
}

Server::~Server() { stop(); }

bool Server::running() const {
  return running_.load(std::memory_order_acquire);
}

Address Server::address() const {
  Address out;
  if (!config_.socket_path.empty()) {
    out.socket_path = config_.socket_path;
  } else {
    out.host = "127.0.0.1";
    out.port = resolved_port_;
  }
  return out;
}

double Server::admission_factor(int load) const {
  if (load <= config_.queue_soft) return 1.0;
  const double span =
      config_.queue_cap > config_.queue_soft
          ? static_cast<double>(config_.queue_cap - config_.queue_soft)
          : 1.0;
  const double factor =
      1.0 - static_cast<double>(load - config_.queue_soft) / span;
  return factor < config_.min_budget_factor ? config_.min_budget_factor
                                            : factor;
}

int Server::listen_unix(std::string* error) {
  sockaddr_un sun{};
  sun.sun_family = AF_UNIX;
  if (config_.socket_path.size() >= sizeof sun.sun_path) {
    if (error != nullptr) *error = "unix socket path too long";
    return -1;
  }
  std::memcpy(sun.sun_path, config_.socket_path.c_str(),
              config_.socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  ::unlink(config_.socket_path.c_str());  // stale path from a dead daemon
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&sun), sizeof sun) != 0 ||
      ::listen(fd, 64) != 0) {
    if (error != nullptr) {
      *error = "bind " + config_.socket_path + ": " + std::strerror(errno);
    }
    ::close(fd);
    return -1;
  }
  return fd;
}

int Server::listen_tcp(std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in sin{};
  sin.sin_family = AF_INET;
  sin.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only, on purpose
  sin.sin_port = htons(static_cast<std::uint16_t>(config_.tcp_port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&sin), sizeof sin) != 0 ||
      ::listen(fd, 64) != 0) {
    if (error != nullptr) {
      *error = "bind 127.0.0.1:" + std::to_string(config_.tcp_port) + ": " +
               std::strerror(errno);
    }
    ::close(fd);
    return -1;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
      0) {
    resolved_port_ = ntohs(bound.sin_port);
  }
  return fd;
}

bool Server::start(std::string* error) {
  if (running()) {
    if (error != nullptr) *error = "server already running";
    return false;
  }
  if (config_.socket_path.empty() && config_.tcp_port < 0) {
    if (error != nullptr) *error = "no listener configured";
    return false;
  }
  stopping_.store(false, std::memory_order_release);
  if (!config_.socket_path.empty()) {
    const int fd = listen_unix(error);
    if (fd < 0) return false;
    listen_fds_.push_back(fd);
  }
  if (config_.tcp_port >= 0) {
    const int fd = listen_tcp(error);
    if (fd < 0) {
      stop();
      return false;
    }
    listen_fds_.push_back(fd);
  }
  running_.store(true, std::memory_order_release);
  for (const int fd : listen_fds_) {
    acceptors_.emplace_back([this, fd] { accept_loop(fd); });
  }
  for (int i = 0; i < config_.dispatchers; ++i) {
    dispatchers_.emplace_back([this] { dispatch_loop(); });
  }
  return true;
}

void Server::stop() {
  stopping_.store(true, std::memory_order_release);
  stop_source_.cancel();  // in-flight runs return their incumbents
  queue_cv_.notify_all();
  for (std::thread& t : acceptors_) t.join();
  acceptors_.clear();
  for (std::thread& t : dispatchers_) t.join();
  dispatchers_.clear();
  for (const int fd : listen_fds_) ::close(fd);
  listen_fds_.clear();
  // Shed whatever the dispatchers left queued: an explicit overloaded
  // frame beats a silently dropped connection.
  std::deque<Pending> leftover;
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    leftover.swap(queue_);
  }
  for (Pending& pending : leftover) {
    send_overloaded(pending.conn, static_cast<int>(leftover.size()));
  }
  if (!config_.socket_path.empty()) {
    ::unlink(config_.socket_path.c_str());
  }
  running_.store(false, std::memory_order_release);
}

void Server::accept_loop(int listen_fd) {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listen_fd;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, 200);
    if (ready <= 0) continue;  // timeout, EINTR, or spurious wakeup
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    Connection conn(fd);
    accepted_.fetch_add(1, std::memory_order_relaxed);

    // Admission, sampled under the queue lock: load counts queued AND
    // executing requests, so a server with every dispatcher busy starts
    // shrinking before the queue is deep.
    double factor = 1.0;
    bool shed = false;
    int queued = 0;
    {
      const std::lock_guard<std::mutex> lock(queue_mutex_);
      queued = static_cast<int>(queue_.size());
      if (queued >= config_.queue_cap) {
        shed = true;
      } else {
        factor = admission_factor(queued + in_flight_);
        queue_.push_back({std::move(conn), factor});
        audit_queue_locked();
      }
    }
    if (shed) {
      send_overloaded(conn, queued);
      continue;
    }
    queue_cv_.notify_one();
  }
}

void Server::dispatch_loop() {
  while (true) {
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return !queue_.empty() || stopping_.load(std::memory_order_acquire);
      });
      if (queue_.empty()) return;  // stopping, nothing left to serve
      pending = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
      audit_queue_locked();
    }
    serve(pending.conn, pending.factor);
    pending.conn.close();
    {
      const std::lock_guard<std::mutex> lock(queue_mutex_);
      --in_flight_;
      audit_queue_locked();
    }
  }
}

void Server::send_overloaded(Connection& conn, int queued) {
  Frame frame;
  frame.type = FrameType::kOverloaded;
  frame.payload = "{\"queue_depth\": " + std::to_string(queued) +
                  ", \"queue_cap\": " + std::to_string(config_.queue_cap) +
                  "}\n";
  // Counted before the reply goes out, so a client that reads `stats`
  // right after its reply already sees itself counted.
  shed_.fetch_add(1, std::memory_order_relaxed);
  std::string ignored;
  (void)conn.write_frame(frame, &ignored);
  conn.close();
}

void Server::send_error(Connection& conn, const std::string& message) {
  Frame frame;
  frame.type = FrameType::kError;
  frame.payload = message;
  if (!frame.payload.empty() && frame.payload.back() != '\n') {
    frame.payload += '\n';
  }
  errors_.fetch_add(1, std::memory_order_relaxed);  // before the reply
  std::string ignored;
  (void)conn.write_frame(frame, &ignored);
}

void Server::serve(Connection& conn, double factor) {
  Frame request;
  std::string error;
  if (!conn.read_frame(&request, &error)) {
    if (!error.empty()) send_error(conn, error);
    return;  // clean EOF: client connected and left
  }
  switch (request.type) {
    case FrameType::kStats:
      handle_stats(conn);
      return;
    case FrameType::kCancel:
      handle_cancel(conn, request);
      return;
    case FrameType::kSolve:
    case FrameType::kRace: {
      // A byte-identical repeat of a request that has already hit its
      // canonical entry is answered here, before any parse.
      // Alias keys start with the frame magic and canonical keys with
      // "verb ", so the two never collide in the shared cache.
      const std::string alias = frame_header(request) + '\n' + request.payload;
      if (auto hit = cache_.lookup_alias(alias)) {
        if (factor < 1.0) shrunk_.fetch_add(1, std::memory_order_relaxed);
        send_cached(conn, std::move(*hit));
        return;
      }
      SolveRequest parsed;
      if (!parse_solve_payload(request.payload, &parsed, &error)) {
        send_error(conn, error);
        return;
      }
      parsed.race = request.type == FrameType::kRace;
      handle_solve(conn, std::move(parsed), alias, factor);
      return;
    }
    default:
      send_error(conn, "frame type '" +
                           std::string(frame_type_name(request.type)) +
                           "' is not a request");
      return;
  }
}

void Server::handle_cancel(Connection& conn, const Frame& frame) {
  core::TokenCursor tokens(frame.payload);
  const bool keyword_ok = tokens.next() == "id";
  const std::string id(tokens.next());
  if (!keyword_ok || id.empty()) {
    send_error(conn, "line 1: cancel payload must be 'id <token>'");
    return;
  }
  bool found = false;
  {
    const std::lock_guard<std::mutex> lock(active_mutex_);
    const auto it = active_.find(id);
    if (it != active_.end()) {
      it->second.source.cancel();
      found = true;
    }
  }
  if (found) cancelled_.fetch_add(1, std::memory_order_relaxed);
  std::ostringstream os;
  os << "{\"cancelled\": " << (found ? "true" : "false") << ", \"id\": ";
  engine::write_json_string(os, id);
  os << "}\n";
  send_ok(conn, os.str());
}

void Server::handle_stats(Connection& conn) {
  const ServiceStats stats = this->stats();
  std::ostringstream os;
  os << "{\"accepted\": " << stats.accepted << ", \"served\": " << stats.served
     << ", \"errors\": " << stats.errors << ", \"shed\": " << stats.shed
     << ", \"shrunk\": " << stats.shrunk
     << ", \"cancelled\": " << stats.cancelled
     << ", \"queue_depth\": " << stats.queue_depth
     << ", \"in_flight\": " << stats.in_flight
     << ", \"queue_soft\": " << config_.queue_soft
     << ", \"queue_cap\": " << config_.queue_cap << ", \"cache\": {"
     << "\"entries\": " << stats.cache.entries
     << ", \"bytes\": " << stats.cache.bytes
     << ", \"hits\": " << stats.cache.hits
     << ", \"misses\": " << stats.cache.misses
     << ", \"alias_hits\": " << stats.cache.alias_hits
     << ", \"insertions\": " << stats.cache.insertions
     << ", \"evictions\": " << stats.cache.evictions << "}}\n";
  send_ok(conn, os.str());
}

void Server::handle_solve(Connection& conn, SolveRequest request,
                          const std::string& alias, double factor) {
  // Effective budget under admission control: a shrunk request keeps its
  // anytime semantics (rows carry timed_out + best_bound/gap), it just
  // gets less clock. "Unlimited" cannot survive overload — it shrinks
  // from the configured default budget instead.
  double budget_ms = request.budget_ms;
  const bool is_shrunk = factor < 1.0;
  if (is_shrunk) {
    const double base =
        budget_ms > 0.0 ? budget_ms : config_.default_budget_ms;
    budget_ms = base * factor;
    if (budget_ms < 1.0) budget_ms = 1.0;
    shrunk_.fetch_add(1, std::memory_order_relaxed);
  }

  // Cache: keyed by the canonical request (original budget — the key
  // describes what was ASKED, not what admission granted), so a shrunk
  // request can still be answered bit-identically from a full-budget
  // entry. Shrunk responses are never inserted. A hit also installs the
  // request's raw alias, so its next byte-identical repeat skips the parse.
  const std::string key = cache_key(request);
  if (auto hit = cache_.lookup(key)) {
    cache_.insert(alias, *hit);
    send_cached(conn, std::move(*hit));
    return;
  }

  // Per-request context: its own cancel source (the `cancel` verb's
  // target when the request carries an id) chained with the server's
  // shutdown source, the effective budget, and — when asked — a hook that
  // writes each strictly cheaper incumbent as a `progress` frame the
  // moment a solver reports it. Race contestants and multi-threaded runs
  // report from pool workers, hence the lock; every worker has joined
  // before engine::execute returns, so the final frame always comes last.
  core::CancelSource request_source;
  core::RunContext ctx = core::RunContext::with_budget_ms(budget_ms);
  ctx.set_cancel_token(request_source.token().chained(stop_source_.token()));
  std::mutex progress_mutex;
  int progress_left = std::min(request.progress, config_.max_progress);
  double progress_cost = std::numeric_limits<double>::infinity();
  if (progress_left > 0) {
    ctx.set_incumbent_hook([&](const core::Incumbent& incumbent) {
      const std::lock_guard<std::mutex> lock(progress_mutex);
      if (progress_left == 0 || incumbent.cost >= progress_cost) return;
      Frame progress;
      progress.type = FrameType::kProgress;
      progress.payload = progress_payload(incumbent);
      std::string ignored;
      // A client that hung up stops the stream, not the solve.
      progress_left = conn.write_frame(progress, &ignored) ? progress_left - 1
                                                           : 0;
      progress_cost = incumbent.cost;
    });
  }
  // Last writer wins on id reuse; the serial lets a finishing request
  // retire only its own entry, never a later request's under the same id.
  const std::uint64_t serial =
      next_serial_.fetch_add(1, std::memory_order_relaxed);
  if (!request.id.empty()) {
    const std::lock_guard<std::mutex> lock(active_mutex_);
    active_[request.id] = {serial, request_source};
  }

  engine::Request job;
  job.instance = std::move(request.instance);
  job.solvers = std::move(request.solvers);
  job.race = request.race;
  job.accept_gap = request.accept_gap;
  job.format = request.format;
  engine::Response response =
      engine::execute(registry_, std::move(job), ctx, config_.threads);

  if (!request.id.empty()) {
    const std::lock_guard<std::mutex> lock(active_mutex_);
    const auto it = active_.find(request.id);
    if (it != active_.end() && it->second.serial == serial) active_.erase(it);
  }

  Flags flags = {{"exit", std::to_string(response.exit)}};
  if (is_shrunk) {
    std::string shrunk;
    core::append_number(shrunk, budget_ms);
    flags.emplace_back("budget-ms", std::move(shrunk));
  }

  // Cache only full-budget, undisturbed responses: a shrunk or cancelled
  // run's payload is a degraded answer and must never shadow a full one.
  if (!is_shrunk && !request_source.cancelled() &&
      !stop_source_.cancelled()) {
    cache_.insert(key, {response.payload, response.exit});
  }
  send_ok(conn, std::move(response.payload), std::move(flags));
}

void Server::send_cached(Connection& conn, SolutionCache::Entry entry) {
  send_ok(conn, std::move(entry.payload),
          {{"exit", std::to_string(entry.exit_code)}, {"cached", "1"}});
}

void Server::send_ok(Connection& conn, std::string payload, Flags flags) {
  Frame reply;
  reply.type = FrameType::kOk;
  reply.flags = std::move(flags);
  reply.payload = std::move(payload);
  std::string ignored;
  if (conn.write_frame(reply, &ignored)) {
    served_.fetch_add(1, std::memory_order_relaxed);
  }
}

ServiceStats Server::stats() const {
  ServiceStats out;
  out.accepted = accepted_.load(std::memory_order_relaxed);
  out.served = served_.load(std::memory_order_relaxed);
  out.errors = errors_.load(std::memory_order_relaxed);
  out.shed = shed_.load(std::memory_order_relaxed);
  out.shrunk = shrunk_.load(std::memory_order_relaxed);
  out.cancelled = cancelled_.load(std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    out.queue_depth = static_cast<int>(queue_.size());
    out.in_flight = in_flight_;
  }
  out.cache = cache_.stats();
  return out;
}

void Server::audit_queue_locked() const {
  if constexpr (!core::kAuditEnabled) return;
  ABT_DBG_ASSERT(static_cast<int>(queue_.size()) <= config_.queue_cap,
                 "request queue must never exceed the hard cap");
  ABT_DBG_ASSERT(in_flight_ >= 0 && in_flight_ <= config_.dispatchers,
                 "in-flight count must stay within the dispatcher crew");
  for (const Pending& pending : queue_) {
    ABT_DBG_ASSERT(pending.conn.valid(),
                   "queued connections must hold a live fd");
    ABT_DBG_ASSERT(pending.factor >= config_.min_budget_factor &&
                       pending.factor <= 1.0,
                   "admission factor must lie in [min_budget_factor, 1]");
  }
}

void Server::audit_invariants() const {
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    audit_queue_locked();
  }
  cache_.audit_invariants();
}

}  // namespace abt::service
