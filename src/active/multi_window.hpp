#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "active/feasibility.hpp"
#include "core/active_schedule.hpp"
#include "core/job.hpp"
#include "core/run_context.hpp"

namespace abt::active {

/// The generalization studied by Chang, Gabow and Khuller [2] and recalled
/// in the paper's related work: a job may be scheduled in a *union of time
/// intervals* instead of one window. Minimizing active time under this
/// model is NP-hard once g >= 3 (reduction from 3-EXACT-COVER), so the
/// library offers feasibility, extraction, a minimal-feasible heuristic
/// (no approximation guarantee carries over — Theorem 1's charging needs
/// single windows) and a brute-force optimum for calibration.
struct MultiWindowJob {
  /// Disjoint (release, deadline) pairs; the job may run in slots
  /// {r+1..d} of any of them.
  std::vector<std::pair<core::SlotTime, core::SlotTime>> windows;
  core::SlotTime length = 0;

  [[nodiscard]] bool live_in_slot(core::SlotTime t) const {
    for (const auto& [r, d] : windows) {
      if (t > r && t <= d) return true;
    }
    return false;
  }
  /// Total number of slots across windows.
  [[nodiscard]] core::SlotTime window_slots() const {
    core::SlotTime total = 0;
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
  [[nodiscard]] const MultiWindowJob& job(core::JobId j) const {
    return jobs_[static_cast<std::size_t>(j)];
  }
  [[nodiscard]] int size() const { return static_cast<int>(jobs_.size()); }
  [[nodiscard]] int capacity() const { return capacity_; }
  [[nodiscard]] core::SlotTime horizon() const { return horizon_; }
  [[nodiscard]] core::SlotTime total_work() const { return total_work_; }

  /// Sanity: windows sorted, disjoint, nonempty; length positive and at
  /// most the union of windows.
  [[nodiscard]] bool structurally_valid(std::string* why = nullptr) const;

 private:
  std::vector<MultiWindowJob> jobs_;
  int capacity_ = 1;
  core::SlotTime horizon_ = 0;
  core::SlotTime total_work_ = 0;
};

/// Slots where at least one job is live, ascending.
[[nodiscard]] std::vector<core::SlotTime> mw_candidate_slots(
    const MultiWindowInstance& inst);

/// Max-flow feasibility with the given active slots (the Fig 2 network
/// with one job->slot edge per live (job, slot) pair).
[[nodiscard]] bool mw_is_feasible_with_slots(
    const MultiWindowInstance& inst,
    const std::vector<core::SlotTime>& active_slots);

/// Cancellable tri-state variant: `should_stop` (may be empty) is polled
/// inside the max-flow; a trip yields FeasStatus::kCancelled, which must
/// never be read as infeasible.
[[nodiscard]] FeasStatus mw_feasibility_with_slots(
    const MultiWindowInstance& inst,
    const std::vector<core::SlotTime>& active_slots,
    const std::function<bool()>& should_stop);

/// Integral assignment into the given slots, or nullopt.
[[nodiscard]] std::optional<core::ActiveSchedule> mw_extract_assignment(
    const MultiWindowInstance& inst,
    std::vector<core::SlotTime> active_slots);

/// Verifies a multi-window active schedule (counterpart of
/// core::check_active_schedule).
[[nodiscard]] bool mw_check_schedule(const MultiWindowInstance& inst,
                                     const core::ActiveSchedule& sched,
                                     std::string* why = nullptr);

/// Minimal feasible solution by left-to-right closing on one warm G_feas
/// (see SlotNetwork). Heuristic: minimal, feasible, but no
/// 3-approximation guarantee in this model.
///
/// `context` (may be null) is polled for CANCELLATION ONLY, with the
/// semantics of solve_minimal_feasible: a cancel before feasibility is
/// established returns nullopt and sets `*cancelled` (when non-null); a
/// cancel mid-pass stops closing and returns the feasible, possibly
/// non-minimal, set kept so far.
[[nodiscard]] std::optional<core::ActiveSchedule> mw_solve_minimal_feasible(
    const MultiWindowInstance& inst, const core::RunContext* context = nullptr,
    bool* cancelled = nullptr);

/// Brute-force optimum (subset enumeration); candidate slot count <= 22.
/// Returns -1 when infeasible.
[[nodiscard]] long mw_brute_force_opt(const MultiWindowInstance& inst);

/// Optimum with an extracted integral assignment, by the same subset
/// enumeration as mw_brute_force_opt; nullopt when infeasible. This is the
/// calibration oracle the solver registry exposes as
/// `active/multi-window-exact`. It seeds its incumbent with the
/// minimal-feasible solution, then polls the context on a mask counter —
/// an interrupted run returns the best subset seen so far with
/// `proven_optimal = false`. The 22-candidate structural cap (64-bit mask
/// enumeration) still applies regardless of budget.
struct MultiWindowExactOptions {
  const core::RunContext* context = nullptr;
};

struct MultiWindowExactResult {
  core::ActiveSchedule schedule;
  bool proven_optimal = true;  ///< False when the context stopped it.
};

[[nodiscard]] std::optional<MultiWindowExactResult> mw_solve_exact_anytime(
    const MultiWindowInstance& inst, MultiWindowExactOptions options = {});

}  // namespace abt::active
