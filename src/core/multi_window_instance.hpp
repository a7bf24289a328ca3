#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/job.hpp"

namespace abt::core {

/// The generalization studied by Chang, Gabow and Khuller [2] and recalled
/// in the paper's related work: a job may be scheduled in a *union of time
/// intervals* instead of one window. G_feas, minimal feasible and the
/// checker are shared with SlottedInstance (see core::ActiveInstance); the
/// subset enumeration lives in active/multi_window.
struct MultiWindowJob {
  /// Disjoint (release, deadline) pairs; the job may run in slots
  /// {r+1..d} of any of them.
  std::vector<std::pair<SlotTime, SlotTime>> windows;
  SlotTime length = 0;

  [[nodiscard]] bool live_in_slot(SlotTime t) const {
    for (const auto& [r, d] : windows) {
      if (t > r && t <= d) return true;
    }
    return false;
  }
  /// Calls `f(release, deadline)` on each window, in order.
  template <typename F>
  void for_each_window(F&& f) const {
    for (const auto& [r, d] : windows) f(r, d);
  }
  /// Total number of slots across windows.
  [[nodiscard]] SlotTime window_slots() const {
    SlotTime total = 0;
    for (const auto& [r, d] : windows) total += d - r;
    return total;
  }

  friend bool operator==(const MultiWindowJob&,
                         const MultiWindowJob&) = default;
};

class MultiWindowInstance {
 public:
  MultiWindowInstance() = default;
  MultiWindowInstance(std::vector<MultiWindowJob> jobs, int capacity);

  [[nodiscard]] const std::vector<MultiWindowJob>& jobs() const {
    return jobs_;
  }
  [[nodiscard]] const MultiWindowJob& job(JobId j) const {
    return jobs_[static_cast<std::size_t>(j)];
  }
  [[nodiscard]] int size() const { return static_cast<int>(jobs_.size()); }
  [[nodiscard]] int capacity() const { return capacity_; }
  [[nodiscard]] SlotTime horizon() const { return horizon_; }
  [[nodiscard]] SlotTime total_work() const { return total_work_; }

  /// Ceiling of P/g: Theorem 1's full-slots bound carries over verbatim
  /// (P units of work, at most g per active slot).
  [[nodiscard]] SlotTime mass_lower_bound() const {
    return (total_work_ + capacity_ - 1) / capacity_;
  }

  /// Sanity: windows sorted, disjoint, nonempty; length positive and at
  /// most the union of windows.
  [[nodiscard]] bool structurally_valid(std::string* why = nullptr) const;

 private:
  std::vector<MultiWindowJob> jobs_;
  int capacity_ = 1;
  SlotTime horizon_ = 0;
  SlotTime total_work_ = 0;
};

}  // namespace abt::core
