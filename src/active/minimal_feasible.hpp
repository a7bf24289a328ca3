#pragma once

#include <cstdint>
#include <optional>

#include "core/active_schedule.hpp"
#include "core/run_context.hpp"
#include "core/slotted_instance.hpp"

namespace abt::active {

/// Order in which the minimal-feasible solver attempts to close slots.
/// Any order yields a minimal feasible solution (Definition 4) and hence a
/// 3-approximation (Theorem 1); the order is the adversarial knob that the
/// Fig 3 tight example exploits.
enum class CloseOrder {
  kLeftToRight,   ///< Close earliest slots first (keeps late slots; "lazy").
  kRightToLeft,   ///< Close latest slots first (keeps early slots).
  kSparsestFirst, ///< Close slots with fewest live jobs first.
  kDensestFirst,  ///< Close slots with most live jobs first.
  kRandom,        ///< Uniformly random order (seeded).
};

struct MinimalFeasibleOptions {
  CloseOrder order = CloseOrder::kLeftToRight;
  std::uint64_t seed = 1;  ///< Used by kRandom.
  /// Polled for CANCELLATION ONLY (never the budget — this is a polynomial
  /// solver whose output must not depend on the wall clock; an expired
  /// budget must produce the same schedule as a free run). On cancellation
  /// mid-pass the closing stops early: the set kept is still feasible,
  /// merely not minimal, and is returned as the anytime result.
  const core::RunContext* context = nullptr;
};

/// Computes a minimal feasible solution: starts from all candidate slots
/// active, closes slots one at a time in the given order, keeping a closure
/// whenever the remaining set is still feasible. Feasibility is monotone in
/// the slot set, so one pass yields minimality. The pass builds G_feas and
/// runs one max-flow, then keeps that flow alive: a trial reroutes only
/// the (at most g) units the slot carried (SlotNetwork::try_close). The
/// returned assignment comes from a fresh flow on the kept slots.
///
/// Returns nullopt when the instance itself is infeasible — or when
/// cancellation tripped before feasibility was established, in which case
/// `*cancelled` (when non-null) is set so callers can tell the two apart.
///
/// Cost of the result is at most 3 * OPT (Theorem 1), and the bound is
/// tight (Fig 3). Multi-window jobs get the same pass (a slot's live jobs
/// count every window), but Theorem 1's charging needs single windows, so
/// there the result is minimal and feasible with no approximation factor.
template <core::ActiveInstance Instance>
[[nodiscard]] std::optional<core::ActiveSchedule> solve_minimal_feasible(
    const Instance& inst, MinimalFeasibleOptions options = {},
    bool* cancelled = nullptr);

}  // namespace abt::active
