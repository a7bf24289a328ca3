#include "service/protocol.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "core/assert.hpp"
#include "core/io.hpp"
#include "core/text.hpp"

namespace abt::service {

namespace {

constexpr std::string_view kTypeNames[] = {
    "solve", "race", "cancel", "stats", "ok", "error", "overloaded",
    "progress"};

bool fail(std::string* error, std::string what) {
  if (error != nullptr) *error = std::move(what);
  return false;
}

bool fail_line(std::string* error, int line, const std::string& what) {
  return fail(error, "line " + std::to_string(line) + ": " + what);
}

/// Flags ride the header line, so their syntax is deliberately tiny and
/// is exactly what parse_frame_header reads back: the header splits on
/// whitespace, and a flag splits at its first '='.
bool valid_flag(std::string_view key, std::string_view value) {
  const auto blank_free = [](std::string_view token) {
    return !token.empty() &&
           std::none_of(token.begin(), token.end(), core::is_blank);
  };
  return blank_free(key) && key.find('=') == std::string_view::npos &&
         blank_free(value);
}

}  // namespace

std::string_view frame_type_name(FrameType type) {
  return kTypeNames[static_cast<int>(type)];
}

std::optional<FrameType> frame_type_from(std::string_view name) {
  for (int i = 0; i < static_cast<int>(std::size(kTypeNames)); ++i) {
    if (kTypeNames[i] == name) return static_cast<FrameType>(i);
  }
  return std::nullopt;
}

std::string Frame::flag(std::string_view key, std::string fallback) const {
  for (const auto& [k, v] : flags) {
    if (k == key) return v;
  }
  return fallback;
}

bool Frame::has_flag(std::string_view key) const {
  for (const auto& [k, v] : flags) {
    if (k == key) return true;
  }
  return false;
}

bool parse_frame_header(std::string_view line, FrameType* type,
                        std::size_t* bytes,
                        std::vector<std::pair<std::string, std::string>>* flags,
                        std::string* error) {
  core::TokenCursor tokens(line);
  if (tokens.next() != kMagic) {
    return fail(error, "bad magic (expected 'abt1')");
  }
  const std::string_view name = tokens.next();
  if (name.empty()) return fail(error, "missing frame type");
  const auto parsed = frame_type_from(name);
  if (!parsed.has_value()) {
    return fail(error, "unknown frame type '" + std::string(name) + "'");
  }
  *type = *parsed;
  if (!tokens.number(bytes)) return fail(error, "bad payload length");
  if (*bytes > kMaxFrameBytes) return fail(error, "payload length over limit");
  flags->clear();
  for (std::string_view token = tokens.next(); !token.empty();
       token = tokens.next()) {
    const auto eq = token.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq + 1 == token.size()) {
      return fail(error, "bad flag '" + std::string(token) +
                             "' (want key=value)");
    }
    flags->emplace_back(token.substr(0, eq), token.substr(eq + 1));
  }
  return true;
}

std::string frame_header(const Frame& frame) {
  std::string out(kMagic);
  out += ' ';
  out += frame_type_name(frame.type);
  out += ' ';
  out += std::to_string(frame.payload.size());
  for (const auto& [key, value] : frame.flags) {
    ABT_ASSERT(valid_flag(key, value),
               "frame flags need a non-empty, blank- and '='-free key and a "
               "non-empty, blank-free value");
    out += ' ';
    out += key;
    out += '=';
    out += value;
  }
  return out;
}

bool read_frame(std::istream& in, Frame* out, std::string* error) {
  std::string header;
  if (!std::getline(in, header)) {
    if (error != nullptr) error->clear();  // clean EOF at a frame boundary
    return false;
  }
  if (!header.empty() && header.back() == '\r') header.pop_back();
  std::size_t bytes = 0;
  if (!parse_frame_header(header, &out->type, &bytes, &out->flags, error)) {
    return false;
  }
  out->payload.resize(bytes);
  if (bytes > 0) {
    in.read(out->payload.data(), static_cast<std::streamsize>(bytes));
    if (static_cast<std::size_t>(in.gcount()) != bytes) {
      return fail(error, "truncated payload");
    }
  }
  return true;
}

void write_frame(std::ostream& out, const Frame& frame) {
  out << frame_header(frame) << '\n' << frame.payload;
}

// ---------------------------------------------------------------------------
// Solve/race payload codec.

bool parse_solve_payload(std::string_view payload, SolveRequest* out,
                         std::string* error) {
  *out = SolveRequest{};
  core::LineCursor lines(payload);
  bool saw_instance = false;
  bool seen[6] = {};  // id, solvers, budget, gap, progress, format
  auto once = [&](int which, const char* name) {
    if (seen[which]) {
      return fail_line(error, lines.line_no(),
                       std::string("duplicate ") + name + " directive");
    }
    seen[which] = true;
    return true;
  };

  std::string_view line;
  while (lines.next(&line)) {
    const int line_no = lines.line_no();
    core::TokenCursor args(line);
    const std::string_view keyword = args.next();
    if (keyword.empty()) continue;  // blank line

    if (keyword == "instance") {
      if (!args.at_end()) {
        return fail_line(error, line_no,
                         "instance directive takes no arguments");
      }
      saw_instance = true;
      break;
    }
    if (keyword == "id") {
      if (!once(0, "id")) return false;
      out->id = args.next();
      if (out->id.empty()) return fail_line(error, line_no, "id needs a token");
    } else if (keyword == "solvers") {
      if (!once(1, "solvers")) return false;
      for (std::string_view name = args.next(); !name.empty();
           name = args.next()) {
        out->solvers.emplace_back(name);
      }
      if (out->solvers.empty()) {
        return fail_line(error, line_no, "solvers needs at least one name");
      }
    } else if (keyword == "budget-ms") {
      if (!once(2, "budget-ms")) return false;
      if (!args.number(&out->budget_ms) || out->budget_ms < 0.0) {
        return fail_line(error, line_no,
                         "budget-ms needs a non-negative number");
      }
    } else if (keyword == "accept-gap") {
      if (!once(3, "accept-gap")) return false;
      if (!args.number(&out->accept_gap)) {
        return fail_line(error, line_no, "accept-gap needs a number");
      }
      // Every negative gap means "accept any": one value keeps the cache
      // key canonical.
      if (out->accept_gap < 0.0) out->accept_gap = -1.0;
    } else if (keyword == "progress") {
      if (!once(4, "progress")) return false;
      if (!args.number(&out->progress) || out->progress < 0) {
        return fail_line(error, line_no,
                         "progress needs a non-negative integer");
      }
    } else if (keyword == "format") {
      if (!once(5, "format")) return false;
      const std::string_view name = args.next();
      if (name == engine::format_name(engine::Format::kCsv)) {
        out->format = engine::Format::kCsv;
      } else if (name == engine::format_name(engine::Format::kTable)) {
        out->format = engine::Format::kTable;
      } else if (name != engine::format_name(engine::Format::kJson)) {
        return fail_line(error, line_no,
                         "format must be json, csv or table");
      }
    } else {
      return fail_line(error, line_no,
                       "unknown request directive '" + std::string(keyword) +
                           "'");
    }
    if (!args.at_end()) {
      return fail_line(error, line_no,
                       "trailing tokens after " + std::string(keyword) +
                           " directive");
    }
  }

  if (!saw_instance) {
    return fail_line(error, lines.line_no() + 1,
                     "missing instance directive");
  }

  // The instance is parsed in place; its line numbers continue the
  // payload's, so errors point into the whole payload.
  const int instance_line_base = lines.line_no();
  auto inst = core::parse_instance(lines.rest(), error, instance_line_base);
  if (!inst.has_value()) return false;
  core::write_instance(out->canonical, *inst);
  out->instance = std::move(*inst);
  return true;
}

bool write_solve_payload(std::string& out, const SolveRequest& request,
                         std::string* /*error*/) {
  if (!request.id.empty()) core::append(out, "id ", request.id, '\n');
  if (!request.solvers.empty()) {
    out += "solvers";
    for (const std::string& name : request.solvers) {
      core::append(out, ' ', name);
    }
    out += '\n';
  }
  if (request.budget_ms > 0.0) {
    core::append(out, "budget-ms ", request.budget_ms, '\n');
  }
  if (request.accept_gap >= 0.0) {
    core::append(out, "accept-gap ", request.accept_gap, '\n');
  }
  if (request.progress > 0) {
    core::append(out, "progress ", request.progress, '\n');
  }
  core::append(out, "format ", engine::format_name(request.format),
               "\ninstance\n");
  core::write_instance(out, request.instance);
  return true;
}

bool write_solve_payload(std::ostream& os, const SolveRequest& request,
                         std::string* error) {
  std::string text;
  write_solve_payload(text, request, error);
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
  return true;
}

std::string cache_key(const SolveRequest& request) {
  std::string key;
  key.reserve(request.canonical.size() + 128);
  core::append(key, request.race ? "verb race\n" : "verb solve\n", "format ",
               engine::format_name(request.format), "\nsolvers");
  for (const std::string& name : request.solvers) core::append(key, ' ', name);
  core::append(key, "\nbudget-ms ", request.budget_ms, "\naccept-gap ",
               request.accept_gap, "\ninstance\n", request.canonical);
  return key;
}

// ---------------------------------------------------------------------------
// Addresses and socket plumbing.

std::string Address::describe() const {
  if (is_unix()) return socket_path;
  return host + ':' + std::to_string(port);
}

std::optional<Address> parse_address(const std::string& text,
                                     std::string* error) {
  if (text.empty()) {
    fail(error, "empty address");
    return std::nullopt;
  }
  Address out;
  const auto colon = text.rfind(':');
  if (text.find('/') == std::string::npos && colon != std::string::npos) {
    int port = -1;
    if (!core::parse_number(std::string_view(text).substr(colon + 1),
                            &port) ||
        port < 0 ||
        port > 65535) {
      fail(error, "bad port in address '" + text + "'");
      return std::nullopt;
    }
    out.host = colon == 0 ? std::string("127.0.0.1") : text.substr(0, colon);
    out.port = port;
    return out;
  }
  out.socket_path = text;
  return out;
}

Connection::~Connection() { close(); }

Connection::Connection(Connection&& other) noexcept
    : fd_(other.fd_),
      buffer_(std::move(other.buffer_)),
      consumed_(other.consumed_) {
  other.fd_ = -1;
}

Connection& Connection::operator=(Connection&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    consumed_ = other.consumed_;
    other.fd_ = -1;
  }
  return *this;
}

void Connection::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
  consumed_ = 0;
}

bool Connection::read_more(std::string* error) {
  char chunk[4096];
  while (true) {
    const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
    if (got > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(got));
      return true;
    }
    if (got == 0) return fail(error, "");  // peer closed
    if (errno == EINTR) continue;
    return fail(error, std::string("recv: ") + std::strerror(errno));
  }
}

bool Connection::read_frame(Frame* out, std::string* error) {
  if (fd_ < 0) return fail(error, "connection closed");
  // Header line.
  std::size_t nl = 0;
  while ((nl = buffer_.find('\n', consumed_)) == std::string::npos) {
    std::string io_error;
    if (!read_more(&io_error)) {
      if (io_error.empty() && consumed_ == buffer_.size()) {
        if (error != nullptr) error->clear();  // clean EOF between frames
        return false;
      }
      return fail(error, io_error.empty() ? "truncated frame header"
                                          : io_error);
    }
  }
  const std::string_view header(buffer_.data() + consumed_, nl - consumed_);
  consumed_ = nl + 1;
  std::size_t bytes = 0;
  if (!parse_frame_header(header, &out->type, &bytes, &out->flags, error)) {
    return false;
  }
  // Payload bytes.
  while (buffer_.size() - consumed_ < bytes) {
    std::string io_error;
    if (!read_more(&io_error)) {
      return fail(error,
                  io_error.empty() ? "truncated payload" : io_error);
    }
  }
  out->payload.assign(buffer_, consumed_, bytes);
  consumed_ += bytes;
  if (consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  } else if (consumed_ > (64u << 10)) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  return true;
}

bool Connection::write_frame(const Frame& frame, std::string* error) {
  if (fd_ < 0) return fail(error, "connection closed");
  std::string wire = frame_header(frame);
  wire += '\n';
  wire += frame.payload;
  std::size_t sent = 0;
  while (sent < wire.size()) {
    // MSG_NOSIGNAL: a peer that hung up must surface as EPIPE, not kill
    // the daemon with SIGPIPE.
    const ssize_t put =
        ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (put < 0) {
      if (errno == EINTR) continue;
      return fail(error, std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<std::size_t>(put);
  }
  return true;
}

Connection connect_to(const Address& address, std::string* error) {
  if (address.is_unix()) {
    sockaddr_un sun{};
    sun.sun_family = AF_UNIX;
    if (address.socket_path.size() >= sizeof sun.sun_path) {
      fail(error, "unix socket path too long");
      return Connection();
    }
    std::memcpy(sun.sun_path, address.socket_path.c_str(),
                address.socket_path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      fail(error, std::string("socket: ") + std::strerror(errno));
      return Connection();
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&sun), sizeof sun) !=
        0) {
      fail(error, "connect " + address.socket_path + ": " +
                      std::strerror(errno));
      ::close(fd);
      return Connection();
    }
    return Connection(fd);
  }

  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV;
  addrinfo* found = nullptr;
  const std::string port = std::to_string(address.port);
  const int rc = ::getaddrinfo(address.host.c_str(), port.c_str(), &hints,
                               &found);
  if (rc != 0) {
    fail(error, "resolve " + address.host + ": " + ::gai_strerror(rc));
    return Connection();
  }
  int fd = -1;
  for (const addrinfo* ai = found; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(found);
  if (fd < 0) {
    fail(error, "connect " + address.describe() + ": " +
                    std::strerror(errno));
    return Connection();
  }
  return Connection(fd);
}

std::optional<Exchange> client_roundtrip(const Address& address,
                                         const Frame& request,
                                         std::string* error,
                                         const ProgressCallback& on_progress) {
  Connection conn = connect_to(address, error);
  if (!conn.valid()) return std::nullopt;
  // A shed connection is answered (`overloaded`) and closed without the
  // request ever being read, so the send can fail with EPIPE while the
  // response already sits in the socket buffer. Read regardless, and
  // report the send failure only when no response frame arrived either.
  std::string send_error;
  const bool sent = conn.write_frame(request, &send_error);
  Exchange exchange;
  while (true) {
    Frame frame;
    std::string frame_error;
    if (!conn.read_frame(&frame, &frame_error)) {
      if (!sent) {
        fail(error, send_error);
      } else {
        fail(error, frame_error.empty() ? "server closed before responding"
                                        : frame_error);
      }
      return std::nullopt;
    }
    if (frame.type == FrameType::kProgress) {
      if (on_progress) on_progress(frame);
      exchange.progress.push_back(std::move(frame));
      continue;
    }
    exchange.final = std::move(frame);
    return exchange;
  }
}

}  // namespace abt::service
