#pragma once

#include <optional>
#include <vector>

#include "core/active_schedule.hpp"
#include "core/multi_window_instance.hpp"
#include "core/run_context.hpp"

namespace abt::active {

/// Exact search for the multi-window generalization of Chang, Gabow and
/// Khuller [2] (core/multi_window_instance): a job may run in a *union of
/// time intervals* instead of one window. Minimizing active time under this
/// model is NP-hard once g >= 3 (reduction from 3-EXACT-COVER). G_feas
/// (candidate_slots, feasibility_with_slots, extract_assignment), the
/// minimal-feasible heuristic (solve_minimal_feasible — no approximation
/// guarantee carries over, since Theorem 1's charging needs single windows)
/// and the checker (core::check_active_schedule) are the single-window
/// ones; only the subset enumeration below is specific to this model.
using core::MultiWindowInstance;
using core::MultiWindowJob;

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
