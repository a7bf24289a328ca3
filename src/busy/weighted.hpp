#pragma once

#include <string>
#include <vector>

#include "busy/dp_unbounded.hpp"
#include "core/busy_schedule.hpp"
#include "core/run_context.hpp"
#include "core/weighted_instance.hpp"

namespace abt::busy {

/// The width-weighted model's data types live in core/weighted_instance;
/// the algorithms below name them unqualified.
using core::WeightedInstance;
using core::WeightedJob;

/// Feasibility: on every machine, the cumulative width of concurrently
/// running jobs never exceeds g (plus the usual window constraints). One
/// sweep over the runs in machine-major order (core::sort_machine_major);
/// it deliberately shares no code with the heuristics or the exact search
/// below.
[[nodiscard]] bool check_weighted_schedule(const WeightedInstance& inst,
                                           const core::BusySchedule& sched,
                                           std::string* why = nullptr,
                                           double eps = 1e-9);

/// Width-aware FIRSTFIT for interval jobs: non-increasing length order,
/// first machine where the cumulative-width constraint survives. Runs on
/// busy::first_fit's driver: each machine tried costs one O(log k) probe of
/// its cumulative-width occupancy index, and the scan stops at the first
/// machine idle across the job's run. Widths must be >= 1; a job wider
/// than g (direct API only — the parsers reject it) gets a machine of its
/// own that nothing else joins.
[[nodiscard]] core::BusySchedule weighted_first_fit(
    const WeightedInstance& inst);

/// The narrow/wide split of Khandekar et al. [9] (5-approximation for
/// interval jobs): jobs with w > g/2 ("wide") are packed by FIRSTFIT among
/// themselves with at most one running at a time per machine; narrow jobs
/// (w <= g/2) go through width-aware FIRSTFIT on separate machines. Both
/// lanes run on the same driver as weighted_first_fit (the wide lane with
/// unit widths and capacity 1), at the same O(log k) per machine tried.
[[nodiscard]] core::BusySchedule narrow_wide_split(
    const WeightedInstance& inst);

/// The exact busy-time oracle for interval jobs, behind both `busy/exact`
/// (standard instances, through with_unit_widths) and
/// `busy/weighted-exact`: a partition search that assigns jobs in
/// non-increasing length order to an existing machine or one fresh machine,
/// prunes a machine whose peak width would exceed g (a rescan of its runs,
/// sharing no code with the heuristics' occupancy indexes) and every branch
/// whose busy time reaches the incumbent's. The problem is NP-hard even for
/// g = 2 [Winkler-Zhang 14]; the search has no size gate of its own (the
/// registry's free-run gates sit on the solvers' applicability predicates).
struct ExactBusyOptions {
  /// Deadline / cancellation polled by the search (nullptr = free run),
  /// only once an incumbent exists: the first full assignment always
  /// completes, so an interrupted run still returns a feasible schedule.
  const core::RunContext* context = nullptr;
};

struct ExactBusyResult {
  core::BusySchedule schedule;
  bool proven_optimal = true;  ///< False when the context stopped the search.
  long nodes = 0;              ///< Search nodes expanded.
};

[[nodiscard]] ExactBusyResult solve_exact_busy(const WeightedInstance& inst,
                                               ExactBusyOptions options = {});

/// Flexible weighted jobs: freeze positions with the (width-oblivious,
/// exact for g = infinity) unbounded DP, then run the interval algorithm —
/// Khandekar et al.'s recipe, mirrored from section 4.3.
[[nodiscard]] core::BusySchedule schedule_weighted_flexible(
    const WeightedInstance& inst);

/// The same recipe on a g = infinity solution of `inst.unweighted()`
/// computed elsewhere; a non-exact `dp` (its push-left fallback) still
/// yields a feasible schedule.
[[nodiscard]] core::BusySchedule schedule_weighted_flexible(
    const WeightedInstance& inst, const UnboundedSolution& dp);

}  // namespace abt::busy
