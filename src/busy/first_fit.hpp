#pragma once

#include <span>

#include "core/busy_schedule.hpp"
#include "core/continuous_instance.hpp"
#include "core/interval.hpp"

namespace abt::busy {

/// FIRSTFIT of Flammini et al. [5], the 4-approximate baseline for interval
/// jobs: consider jobs in non-increasing order of length and pack each into
/// the first machine whose capacity constraint survives; open a new machine
/// when none fits. The paper's Fig 6-style instances drive it to ratio 3+.
///
/// Machines are indexed by earliest-free time (core::MachineFreeIndex), so
/// the per-job scan stops at the first machine that is idle across the
/// candidate's run instead of probing every open machine. FIRSTFIT in
/// release order needs no occupancy probe at all and is online first fit:
/// `schedule_online(inst, OnlinePolicy::kFirstFit)` (busy/online.hpp).
[[nodiscard]] core::BusySchedule first_fit(
    const core::ContinuousInstance& inst);

namespace detail {

/// One job as the shared first-fit driver sees it: the run it is forced to
/// occupy and the capacity it draws while running.
struct FitJob {
  core::JobId id;
  core::Interval run;
  int width;
};

/// The one first-fit loop behind `first_fit` (every width 1) and the
/// weighted heuristics (busy/weighted.hpp): each job in the given order
/// goes to the first machine whose peak cumulative width over the job's
/// run stays <= `capacity` once the job is added, else to a new machine.
/// Writes placement {machine_base + machine, run.lo} for every job and
/// returns the number of machines opened.
///
/// Each machine tried costs one O(log k) core::OccupancyIndex probe. A job
/// wider than `capacity` (a structurally invalid instance) fits nowhere
/// and seals the machine it opens: nothing joins it later, as a rescan of
/// that machine's over-full peak would decide. An empty run draws no
/// width. Widths must be >= 1.
int first_fit_runs(std::span<const FitJob> jobs, int capacity,
                   int machine_base, core::BusySchedule& sched);

}  // namespace detail

}  // namespace abt::busy
