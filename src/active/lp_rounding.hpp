#pragma once

#include <optional>
#include <vector>

#include "core/active_schedule.hpp"
#include "core/run_context.hpp"
#include "core/slotted_instance.hpp"

namespace abt::active {

/// Per-deadline-segment view of the right-shifted LP solution (Lemma 3 /
/// LP2): Y_i is the LP mass inside segment i = (td_{i-1}, td_i].
struct RightShiftedLp {
  std::vector<core::SlotTime> deadlines;  ///< Distinct deadlines, ascending.
  std::vector<double> segment_mass;       ///< Y_i per segment (same length).
  double objective = 0.0;                 ///< Sum of Y_i = LP optimum.
};

/// Result of the LP-rounding 2-approximation (Theorem 2).
struct LpRoundingResult {
  core::ActiveSchedule schedule;
  double lp_objective = 0.0;  ///< Optimal LP1 value (lower bound on OPT).
  long lp_pivots = 0;         ///< Simplex iterations spent on LP1.
  /// Slots opened by the defensive repair loop; the paper's analysis
  /// guarantees this stays 0, and tests assert it.
  int repair_opens = 0;
  /// True when the run context cancelled the LP solve mid-iteration; the
  /// rest of the result is empty and must not be interpreted.
  bool cancelled = false;
};

/// Right-shifts an optimal LP solution: LP mass within each deadline segment
/// is pushed to the latest slots of the segment (Lemma 3 proves feasibility
/// is preserved because every job live inside segment i has deadline
/// >= td_i).
[[nodiscard]] RightShiftedLp right_shift(const core::SlottedInstance& inst,
                                         const std::vector<core::SlotTime>& slots,
                                         const std::vector<double>& y);

/// The LP rounding algorithm of section 3: solve LP1, right-shift, then per
/// deadline open floor(Y_i) slots from the right; round a fractional
/// remainder >= 1/2 up; for a remainder < 1/2 ("barely open") try to close
/// it — verified by a max-flow prefix-feasibility check — else open it.
/// Closed remainders are carried to the next deadline as the paper's proxy.
///
/// Guarantees (asserted in tests): feasible output, cost <= 2 * LP optimum
/// <= 2 * OPT.
///
/// Returns nullopt when the instance is infeasible. When `ctx` is given,
/// the LP solve polls its should_stop(); on cancellation the result is
/// engaged with `cancelled = true` and no schedule.
[[nodiscard]] std::optional<LpRoundingResult> solve_lp_rounding(
    const core::SlottedInstance& inst, const core::RunContext* ctx = nullptr);

}  // namespace abt::active
