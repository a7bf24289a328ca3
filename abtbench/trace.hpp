#pragma once

// In-memory span recorder for the traced run. Spans are opened and closed
// around calls into one layer's public functions; a span's parent is the
// span that caused it, and the spans of one operation share a request id.
// Spans stay in memory until write_jsonl() at the end of the run. Every
// method is safe to call from pool workers.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "bench_stats.hpp"

namespace abtbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  /// Opens a span now; returns its id (the parent of spans it causes).
  int open(std::string name, int parent, std::int64_t request) {
    const std::int64_t start = now_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({std::move(name), start, start, parent, request});
    return static_cast<int>(spans_.size() - 1);
  }

  /// Closes span `id` now; a non-empty `rename` replaces its name (used
  /// when the layer is only known from the call's outcome).
  void close(int id, const std::string& rename = "") {
    const std::int64_t end = now_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    SpanRecord& span = spans_[static_cast<std::size_t>(id)];
    span.end_ns = end;
    if (!rename.empty()) span.name = rename;
  }

  /// Per-name totals over every span recorded so far.
  struct Totals {
    std::int64_t count = 0;
    std::int64_t self_ns = 0;
  };
  [[nodiscard]] std::map<std::string, Totals> totals() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::vector<std::int64_t> self = self_times(spans_);
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Totals& t = out[spans_[i].name];
      t.count += 1;
      t.self_ns += self[i];
    }
    return out;
  }

  /// One JSON object per span (name, start, end, parent, request), for
  /// at most the first `limit` spans.
  void write_jsonl(std::ostream& os, std::size_t limit = 50000) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const SpanRecord& span : spans_) {
      if (limit-- == 0) break;
      os << "{\"name\": \"" << span.name << "\", \"start_ns\": "
         << span.start_ns << ", \"end_ns\": " << span.end_ns
         << ", \"parent\": " << span.parent
         << ", \"request\": " << span.request << "}\n";
    }
  }

 private:
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span; a null tracer records nothing, so untraced code paths run
/// the same calls without the recording cost.
class Span {
 public:
  Span(Tracer* tracer, std::string name, int parent, std::int64_t request)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->open(std::move(name), parent, request)
                              : -1) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->close(id_, rename_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] int id() const { return id_; }
  void rename(std::string name) { rename_ = std::move(name); }

 private:
  Tracer* tracer_;
  int id_;
  std::string rename_;
};

}  // namespace abtbench
