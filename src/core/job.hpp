#pragma once

#include <cstdint>

namespace abt::core {

/// Integer time used by the slotted (active-time) model. Slot t denotes the
/// unit interval [t-1, t); a job with window (r, d] may occupy slots
/// r+1, ..., d (paper section 1.1).
using SlotTime = std::int64_t;

/// Continuous time used by the busy-time model.
using RealTime = double;

/// Index of a job inside an instance.
using JobId = std::int32_t;

/// A job in the slotted active-time model: p units of work, each unit one
/// slot, preemption at integer boundaries, window slots {release+1, ...,
/// deadline}.
struct SlottedJob {
  SlotTime release = 0;   ///< Earliest time the job may start (slot release+1).
  SlotTime deadline = 0;  ///< Last slot the job may occupy.
  SlotTime length = 0;    ///< Units of work p_j >= 1.

  /// Number of slots in the window.
  [[nodiscard]] SlotTime window_size() const { return deadline - release; }
  /// True when the job admits at least one feasible assignment in isolation.
  [[nodiscard]] bool window_fits() const { return window_size() >= length; }
  /// True when the job may be scheduled in slot t.
  [[nodiscard]] bool live_in_slot(SlotTime t) const {
    return t > release && t <= deadline;
  }
  /// A rigid job has no slack: it must occupy every slot of its window.
  [[nodiscard]] bool rigid() const { return window_size() == length; }
  /// Calls `f(release, deadline)` on the job's one window; MultiWindowJob
  /// has the same member over its list, so G_feas code serves both models.
  template <typename F>
  void for_each_window(F&& f) const {
    f(release, deadline);
  }

  friend bool operator==(const SlottedJob&, const SlottedJob&) = default;
};

/// A job in the continuous busy-time model: must run non-preemptively for
/// `length` time inside [release, deadline).
struct ContinuousJob {
  RealTime release = 0.0;
  RealTime deadline = 0.0;
  RealTime length = 0.0;

  [[nodiscard]] RealTime window_size() const { return deadline - release; }
  /// True when the window can hold the job. Tolerant to the rounding of
  /// (release + length) - release, which matters for generated interval
  /// jobs whose window is exactly their length.
  [[nodiscard]] bool window_fits(RealTime eps = 1e-9) const {
    return window_size() >= length - eps && length > 0.0;
  }
  /// Latest feasible start time.
  [[nodiscard]] RealTime latest_start() const { return deadline - length; }
  /// Interval jobs have no slack: the start time is forced to `release`.
  [[nodiscard]] bool is_interval_job(RealTime eps = 1e-9) const {
    return window_size() <= length + eps;
  }

  friend bool operator==(const ContinuousJob&, const ContinuousJob&) = default;
};

}  // namespace abt::core
