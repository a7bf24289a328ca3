#pragma once

// The benchmark's own arithmetic: percentiles, shares and the self time
// of trace spans. Header-only so the self-test links nothing else.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace abtbench {

/// Percentile by linear interpolation between closest ranks (position
/// q * (n - 1) in the sorted sample), q in [0, 1]. 0 for an empty sample.
[[nodiscard]] inline double percentile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sample.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sample.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sample[lo] + (sample[hi] - sample[lo]) * frac;
}

[[nodiscard]] inline double median(std::vector<double> sample) {
  return percentile(std::move(sample), 0.5);
}

/// part / whole, 0 when nothing was attempted.
[[nodiscard]] inline double share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

/// Host-speed probes of a timed loop: probe j timed the reference kernel
/// (reference.hpp) at `probe_us[j]`. Window j is the work between probes j
/// and j + 1; its reference time is the mean of those two probes.
[[nodiscard]] inline std::vector<double> window_refs(
    const std::vector<double>& probe_us) {
  std::vector<double> out;
  for (std::size_t j = 0; j + 1 < probe_us.size(); ++j) {
    out.push_back((probe_us[j] + probe_us[j + 1]) / 2.0);
  }
  return out;
}

/// Operations attempted and operations that passed every output check.
struct OkTally {
  std::uint64_t attempted = 0;
  std::uint64_t passed = 0;

  void record(bool ok) {
    attempted += 1;
    if (ok) passed += 1;
  }
  [[nodiscard]] std::uint64_t failed() const { return attempted - passed; }
  [[nodiscard]] double ok_share() const {
    return share(static_cast<double>(passed), static_cast<double>(attempted));
  }
};

/// One recorded span. `parent` indexes the enclosing span in the same
/// vector (-1 for a root); `request` groups the spans of one operation.
struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::int64_t request = 0;
};

/// Length of the union of [begin, end) intervals.
[[nodiscard]] inline std::int64_t union_length(
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t total = 0;
  std::int64_t cur_begin = 0;
  std::int64_t cur_end = 0;
  bool open = false;
  for (const auto& [begin, end] : intervals) {
    if (end <= begin) continue;
    if (!open || begin > cur_end) {
      if (open) total += cur_end - cur_begin;
      cur_begin = begin;
      cur_end = end;
      open = true;
    } else {
      cur_end = std::max(cur_end, end);
    }
  }
  if (open) total += cur_end - cur_begin;
  return total;
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children running in parallel overlap; the
/// covered part is their union clipped to the parent, so self time never
/// goes negative.
[[nodiscard]] inline std::vector<std::int64_t> self_times(
    const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const SpanRecord& span : spans) {
    if (span.parent < 0) continue;
    const SpanRecord& parent = spans[static_cast<std::size_t>(span.parent)];
    const std::int64_t begin = std::max(span.start_ns, parent.start_ns);
    const std::int64_t end = std::min(span.end_ns, parent.end_ns);
    if (end > begin) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(begin, end);
    }
  }
  std::vector<std::int64_t> out(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t duration = spans[i].end_ns - spans[i].start_ns;
    out[i] = std::max<std::int64_t>(
        0, duration - union_length(std::move(children[i])));
  }
  return out;
}

}  // namespace abtbench
