#pragma once

#include <vector>

#include "core/run_context.hpp"
#include "core/slotted_instance.hpp"
#include "lp/simplex.hpp"

namespace abt::active {

class SlotNetwork;

/// The LP relaxation LP1 of the paper's IP (section 3):
///   min sum_t y_t
///   x_{t,j} <= y_t                 (open slot to use it)
///   sum_j x_{t,j} <= g y_t        (capacity)
///   sum_t x_{t,j} >= p_j          (demand)
///   0 <= y_t <= 1, x_{t,j} >= 0, x only inside job windows.
///
/// Variables are created only where meaningful: y_t for candidate slots,
/// x_{t,j} for slots in job j's window. y_t <= 1 is a variable bound, so
/// the rows are one link row per x (in x order), then one capacity row per
/// slot, then one demand row per job.
class ActiveTimeLp {
 public:
  /// Builds the model. When `ctx` is given, `should_stop()` is polled
  /// between row batches during construction (the build is O(n * horizon)
  /// rows and used to be the last uninterruptible stretch on the LP
  /// path); a trip abandons the build promptly — the partial model is
  /// unusable and `build_cancelled()` reports it, which solve_active_lp
  /// surfaces as lp::SolveStatus::kCancelled without touching the model.
  explicit ActiveTimeLp(const core::SlottedInstance& inst,
                        const core::RunContext* ctx = nullptr);

  /// True when `ctx` cancelled the build mid-construction.
  [[nodiscard]] bool build_cancelled() const { return build_cancelled_; }

  [[nodiscard]] const lp::LinearProblem& problem() const { return problem_; }

  /// Candidate slots, ascending; y variables correspond 1:1.
  [[nodiscard]] const std::vector<core::SlotTime>& slots() const {
    return slots_;
  }

  /// LP variable index of y_t; t must be a candidate slot.
  [[nodiscard]] int y_index(core::SlotTime t) const;
  /// LP variable index of x_{t,j}, or -1 when t is outside j's window.
  [[nodiscard]] int x_index(core::JobId j, core::SlotTime t) const;

  /// The y_t values of an LP solution vector, indexed like slots().
  [[nodiscard]] std::vector<double> y_values(
      const std::vector<double>& x) const;

  /// A primal-feasible starting basis from an integral assignment
  /// (`job_slots[j]` = the candidate slots job j runs in, e.g. a max-flow
  /// over all candidate slots): y_t nonbasic at 1 on used slots and at 0
  /// elsewhere; x_{t,j} basic where used, else the slack of its link row;
  /// every capacity and demand logical basic. Ordering the link rows
  /// first makes the basis lower triangular with a unit diagonal, so the
  /// solver skips phase 1.
  [[nodiscard]] lp::StartBasis crash_basis(
      const std::vector<std::vector<core::SlotTime>>& job_slots) const;
  /// The same basis read straight off a solved G_feas (slot_network) over
  /// `slot_times`, whose flow is the assignment: no per-job slot lists.
  [[nodiscard]] lp::StartBasis crash_basis(
      const SlotNetwork& flow,
      const std::vector<core::SlotTime>& slot_times) const;

 private:
  /// Every logical basic, every variable at its lower bound.
  [[nodiscard]] lp::StartBasis logical_basis() const;
  /// Job j running in slot t, in a crash basis.
  void use_slot(lp::StartBasis& start, core::JobId j, core::SlotTime t) const;

  lp::LinearProblem problem_;
  bool build_cancelled_ = false;
  std::vector<core::SlotTime> slots_;
  std::vector<int> slot_position_;               // slot -> index in slots_
  std::vector<int> y_vars_;                      // per slot index
  std::vector<int> x_first_;                     // per job: x of its first slot
  std::vector<core::SlotTime> window_begin_;     // per job: release + 1
  std::vector<core::SlotTime> window_size_;      // per job
};

/// Solves LP1 to optimality; convenience wrapper.
struct ActiveLpSolution {
  lp::SolveStatus status = lp::SolveStatus::kIterLimit;
  double objective = 0.0;
  std::vector<double> y;            ///< y_t per candidate slot.
  std::vector<double> raw;          ///< full LP variable vector
  long pivots = 0;                  ///< simplex iterations spent
};

/// When `ctx` is given, its should_stop() is polled inside the simplex
/// iteration loop; a trip surfaces as lp::SolveStatus::kCancelled, so a
/// budget-capped campaign can abandon a long LP solve mid-flight instead
/// of only between solver calls. `start` (optional, e.g. crash_basis())
/// is handed to the solver, which falls back to its two-phase start when
/// the basis is unusable.
[[nodiscard]] ActiveLpSolution solve_active_lp(
    const ActiveTimeLp& model, const core::RunContext* ctx = nullptr,
    const lp::StartBasis* start = nullptr);

}  // namespace abt::active
