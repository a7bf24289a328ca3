#pragma once

// abtd wire protocol v1: length-prefixed, line-oriented frames over a
// byte stream (Unix-domain or TCP socket). One frame is a single ASCII
// header line followed by exactly `bytes` payload bytes:
//
//     abt1 <type> <bytes>[ <key>=<value>]...\n
//     <payload, `bytes` bytes>
//
// Request types:  solve, race, cancel, stats.
// Response types: ok, error, overloaded, progress. A solve/race exchange
// is zero or more `progress` frames, written while the run is still
// solving, each time it finds a strictly cheaper incumbent, followed by
// exactly one final frame; `cancel` and `stats` answer with one final
// frame. Header flags carry response metadata OUTSIDE the payload —
// `exit=N` (the CLI exit code the same run would have produced),
// `cached=1` (payload replayed from the solution cache, bit-identical to
// the original response), `budget-ms=X` (admission control shrank the
// request's budget to X) — so a cached payload stays byte-identical to
// the first computation.
//
// The solve/race payload is line-oriented in the instance-format dialect
// ('#' comments, one directive per line): request directives first, then
// an `instance` directive, then the v2 instance text verbatim:
//
//     id req-7                  # optional, enables the cancel verb
//     solvers busy/first-fit busy/weighted-exact
//     budget-ms 200
//     accept-gap 0.02           # race acceptance threshold
//     progress 4                # stream the first 4 improving incumbents
//     format json               # json | csv | table
//     instance
//     model weighted
//     capacity 4
//     job 0 2.5 2.5
//
// Payload parse errors are line-numbered over the WHOLE payload ("line
// 9: ..."), instance lines included, in the io-v2 style.

#include <cstddef>
#include <functional>
#include <istream>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/solver.hpp"
#include "engine/runner.hpp"

namespace abt::service {

inline constexpr std::string_view kMagic = "abt1";
/// Frames larger than this are rejected at the header (protects the
/// daemon from a hostile or corrupted length prefix).
inline constexpr std::size_t kMaxFrameBytes = 64u << 20;

enum class FrameType {
  kSolve,
  kRace,
  kCancel,
  kStats,
  kOk,
  kError,
  kOverloaded,
  kProgress,
};

[[nodiscard]] std::string_view frame_type_name(FrameType type);
[[nodiscard]] std::optional<FrameType> frame_type_from(std::string_view name);

struct Frame {
  FrameType type = FrameType::kError;
  /// Header key=value pairs, in wire order. Keys and values must be
  /// non-empty and free of whitespace; keys must also be free of '='.
  std::vector<std::pair<std::string, std::string>> flags;
  std::string payload;

  [[nodiscard]] std::string flag(std::string_view key,
                                 std::string fallback = "") const;
  [[nodiscard]] bool has_flag(std::string_view key) const;
};

/// Parses one header line (without the trailing newline). False (with
/// `error`) on malformed magic, unknown type, bad length or bad flag
/// syntax; `*bytes` is the declared payload length.
[[nodiscard]] bool parse_frame_header(
    std::string_view line, FrameType* type, std::size_t* bytes,
    std::vector<std::pair<std::string, std::string>>* flags,
    std::string* error);

/// The header line for `frame` (payload length taken from frame.payload),
/// WITHOUT the trailing newline.
[[nodiscard]] std::string frame_header(const Frame& frame);

/// Stream framing (the socket Connection below layers the same codec
/// over a fd; the iostream pair exists so tests and tools can round-trip
/// frames without sockets). read_frame returns false with an empty
/// `error` on clean EOF before any header byte, and with a diagnostic on
/// any malformed or truncated frame.
[[nodiscard]] bool read_frame(std::istream& in, Frame* out,
                              std::string* error);
void write_frame(std::ostream& out, const Frame& frame);

/// A parsed solve/race request.
struct SolveRequest {
  bool race = false;
  std::string id;                     ///< "" = not cancellable by verb.
  std::vector<std::string> solvers;   ///< Empty = every applicable solver.
  double budget_ms = 0.0;             ///< 0 = unlimited (server may shrink).
  double accept_gap = -1.0;           ///< Race acceptance (< 0 = any).
  int progress = 0;                   ///< Max progress frames wanted.
  engine::Format format = engine::Format::kJson;
  core::ProblemInstance instance;
  /// Canonical write_instance serialization of `instance` — the
  /// instance part of the cache key.
  std::string canonical;
};

/// Parses a solve/race payload. Errors are "line N: ..." with N counted
/// over the whole payload. Directives and the instance are read in place
/// with the core/text.hpp tokenizer; the only copy made is the canonical
/// re-write.
[[nodiscard]] bool parse_solve_payload(std::string_view payload,
                                       SolveRequest* out, std::string* error);

/// Appends `request` in the payload format to `out` (client side). Every
/// instance model serializes, so this always returns true and never
/// writes `error`; both stay so existing `if (!write_solve_payload(...))`
/// callers keep compiling.
bool write_solve_payload(std::string& out, const SolveRequest& request,
                         std::string* error);
/// Stream form: builds the payload, then writes it whole.
bool write_solve_payload(std::ostream& os, const SolveRequest& request,
                         std::string* error);

/// Canonical cache key of a parsed request: verb, format, solver subset,
/// budget and acceptance parameters, then the canonical instance text.
/// Deliberately excludes `id` and `progress` — neither changes the
/// response payload.
[[nodiscard]] std::string cache_key(const SolveRequest& request);

/// A daemon endpoint: exactly one of socket_path (Unix domain) or
/// host/port (TCP) is set.
struct Address {
  std::string socket_path;
  std::string host;
  int port = -1;
  [[nodiscard]] bool is_unix() const { return !socket_path.empty(); }
  [[nodiscard]] std::string describe() const;
};

/// Parses a --connect / --socket style address: `host:port` when the
/// text has no '/' and ends in `:<digits>`, a Unix socket path
/// otherwise. nullopt (with `error`) for empty or unusable text.
[[nodiscard]] std::optional<Address> parse_address(const std::string& text,
                                                   std::string* error);

/// Blocking framed connection over a connected socket fd (owns the fd).
class Connection {
 public:
  Connection() = default;
  explicit Connection(int fd) : fd_(fd) {}
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  Connection(Connection&& other) noexcept;
  Connection& operator=(Connection&& other) noexcept;

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }

  /// Reads one frame. False with empty `error` on clean EOF at a frame
  /// boundary; false with a diagnostic on malformed or truncated input.
  [[nodiscard]] bool read_frame(Frame* out, std::string* error);
  [[nodiscard]] bool write_frame(const Frame& frame, std::string* error);
  void close();

 private:
  [[nodiscard]] bool read_more(std::string* error);

  int fd_ = -1;
  std::string buffer_;       ///< Received-but-unconsumed bytes.
  std::size_t consumed_ = 0;  ///< Prefix of buffer_ already handed out.
};

/// Connects to a daemon address. Invalid Connection (with `error`) on
/// failure.
[[nodiscard]] Connection connect_to(const Address& address,
                                    std::string* error);

/// One full request/response exchange: progress frames are collected
/// until the final ok/error/overloaded frame arrives.
struct Exchange {
  std::vector<Frame> progress;
  Frame final;
};

using ProgressCallback = std::function<void(const Frame&)>;

/// Sends `request` over a fresh connection and drains the response.
/// Each `progress` frame goes to `on_progress` (when set) as soon as it is
/// read, then into Exchange::progress. nullopt (with `error`) on
/// connection or framing failure.
[[nodiscard]] std::optional<Exchange> client_roundtrip(
    const Address& address, const Frame& request, std::string* error,
    const ProgressCallback& on_progress = {});

}  // namespace abt::service
