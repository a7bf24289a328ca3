#include "busy/flexible_pipeline.hpp"

#include "busy/first_fit.hpp"
#include "busy/greedy_tracking.hpp"
#include "busy/online.hpp"
#include "busy/two_track_peeling.hpp"
#include "core/assert.hpp"

namespace abt::busy {

using core::BusySchedule;
using core::ContinuousInstance;
using core::JobId;

FlexiblePipelineResult schedule_flexible(const ContinuousInstance& inst,
                                         IntervalAlgorithm algorithm,
                                         UnboundedOptions dp_options) {
  return schedule_flexible(inst, solve_unbounded(inst, dp_options), algorithm);
}

FlexiblePipelineResult schedule_flexible(const ContinuousInstance& inst,
                                         const UnboundedSolution& unbounded,
                                         IntervalAlgorithm algorithm) {
  const ContinuousInstance frozen =
      freeze_to_interval_instance(inst, unbounded);

  BusySchedule interval_schedule;
  switch (algorithm) {
    case IntervalAlgorithm::kGreedyTracking:
      interval_schedule = greedy_tracking(frozen);
      break;
    case IntervalAlgorithm::kTwoTrackPeeling:
      interval_schedule = two_track_peeling(frozen);
      break;
    case IntervalAlgorithm::kFirstFit:
      interval_schedule = first_fit(frozen);
      break;
    case IntervalAlgorithm::kFirstFitByRelease:
      interval_schedule = schedule_online(frozen, OnlinePolicy::kFirstFit);
      break;
  }

  // The frozen instance pins release = DP start, so each placement's start
  // is already the DP position; reuse machine assignments for the original
  // instance with those starts.
  FlexiblePipelineResult result;
  result.schedule.placements.assign(static_cast<std::size_t>(inst.size()), {});
  for (JobId j = 0; j < inst.size(); ++j) {
    result.schedule.placements[static_cast<std::size_t>(j)] = {
        interval_schedule.placements[static_cast<std::size_t>(j)].machine,
        unbounded.starts[static_cast<std::size_t>(j)]};
  }
  result.opt_infinity = unbounded.busy_time;
  result.dp_exact = unbounded.exact;
  result.timed_out = unbounded.timed_out;
  return result;
}

}  // namespace abt::busy
