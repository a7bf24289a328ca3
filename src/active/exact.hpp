#pragma once

#include <optional>

#include "core/active_schedule.hpp"
#include "core/run_context.hpp"
#include "core/slotted_instance.hpp"

namespace abt::active {

/// Exact active-time solver by branch-and-bound over slot open/close
/// decisions with max-flow feasibility pruning and a Hall-style window
/// lower bound. Exponential worst case; intended for the small instances
/// that calibrate the approximation experiments (the paper conjectures the
/// problem is NP-hard, so no polynomial exact algorithm is expected).
/// The search is anytime: it seeds its incumbent with a minimal-feasible
/// solution before branching, so an interrupted run (node limit or
/// RunContext deadline/cancellation) still returns a feasible schedule.
struct ExactOptions {
  /// Abort the search after this many branch nodes (0 = unlimited). On
  /// abort the best incumbent found so far is returned with `proven_optimal
  /// = false`.
  long node_limit = 0;
  /// Deadline / cancellation polled per branch node (nullptr = free run).
  const core::RunContext* context = nullptr;
};

struct ExactResult {
  core::ActiveSchedule schedule;
  bool proven_optimal = true;
  bool timed_out = false;  ///< The RunContext (not node_limit) stopped it.
  /// Cancelled before an incumbent existed (during the root feasibility
  /// flow or the incumbent seeding) — `schedule` is empty and must not be
  /// read. Distinct from timed_out-with-incumbent, where the anytime
  /// guarantee still delivers a feasible schedule.
  bool cancelled = false;
  long nodes_explored = 0;
};

/// Returns nullopt when the instance is infeasible.
[[nodiscard]] std::optional<ExactResult> solve_exact(
    const core::SlottedInstance& inst, ExactOptions options = {});

}  // namespace abt::active
