#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "active/feasibility.hpp"
#include "core/active_schedule.hpp"
#include "core/multi_window_instance.hpp"
#include "core/run_context.hpp"

namespace abt::active {

/// Algorithms for the multi-window generalization of Chang, Gabow and
/// Khuller [2] (core/multi_window_instance): a job may run in a *union of
/// time intervals* instead of one window. Minimizing active time under this
/// model is NP-hard once g >= 3 (reduction from 3-EXACT-COVER), so the
/// library offers feasibility, extraction, a minimal-feasible heuristic
/// (no approximation guarantee carries over — Theorem 1's charging needs
/// single windows) and a brute-force optimum for calibration.
using core::MultiWindowInstance;
using core::MultiWindowJob;

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
