#pragma once

#include "busy/dp_unbounded.hpp"
#include "core/busy_schedule.hpp"
#include "core/continuous_instance.hpp"

namespace abt::busy {

/// Interval-job algorithm applied after the g = infinity conversion.
enum class IntervalAlgorithm {
  kGreedyTracking,   ///< Theorem 5 -> 3-approx end to end (section 4.3).
  kTwoTrackPeeling,  ///< Theorem 3 charging -> 4-approx end to end (Thm 10).
  kFirstFit,         ///< Flammini et al. baseline -> no better than 4.
  kFirstFitByRelease ///< Release-ordered FIRSTFIT baseline.
};

struct FlexiblePipelineResult {
  core::BusySchedule schedule;
  double opt_infinity = 0.0;  ///< Busy time of the g=infinity DP (span LB).
  bool dp_exact = true;       ///< g=infinity solve stayed within budget.
  bool timed_out = false;     ///< A RunContext stopped the DP (push-left).
};

/// The paper's recipe for flexible jobs (section 4.3): solve g = infinity
/// optimally, freeze every job at its DP position (making the instance one
/// of interval jobs), then run an interval-job algorithm. GreedyTracking
/// yields the paper's headline 3-approximation; the profile-charging
/// algorithms yield 4 (Theorem 10, tight on the Fig 10 gadget).
[[nodiscard]] FlexiblePipelineResult schedule_flexible(
    const core::ContinuousInstance& inst,
    IntervalAlgorithm algorithm = IntervalAlgorithm::kGreedyTracking,
    UnboundedOptions dp_options = {});

/// The freeze-and-schedule half of the pipeline on a g = infinity solution
/// computed elsewhere (one DP solve shared by several consumers). A
/// non-exact `unbounded` (its push-left fallback) still yields a feasible
/// schedule; `dp_exact` / `timed_out` report it.
[[nodiscard]] FlexiblePipelineResult schedule_flexible(
    const core::ContinuousInstance& inst, const UnboundedSolution& unbounded,
    IntervalAlgorithm algorithm = IntervalAlgorithm::kGreedyTracking);

}  // namespace abt::busy
