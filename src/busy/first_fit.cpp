#include "busy/first_fit.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "core/assert.hpp"
#include "core/sweep.hpp"

namespace abt::busy {

using core::BusySchedule;
using core::ContinuousInstance;
using core::Interval;
using core::JobId;

namespace detail {

int first_fit_runs(std::span<const FitJob> jobs, int capacity,
                   int machine_base, BusySchedule& sched) {
  // Machines carry two structures: the occupancy index for the O(log k)
  // capacity probe, and a MachineFreeIndex keyed by each machine's
  // earliest-free time (max endpoint inserted so far). The first machine
  // whose earliest-free time is <= the candidate's start is idle across the
  // whole run, so it fits without a probe AND no machine past it can be the
  // first fit — the scan is bounded by that index instead of running over
  // every open machine. Placements are identical to the plain linear scan
  // (asserted in tests/test_sweep.cpp and tests/test_weighted.cpp).
  //
  // Per-worker machine pool: a cleared FlatOccupancyIndex keeps its flat
  // arrays, so every trial after a worker thread's first reuses the
  // allocations instead of rebuilding each machine from empty heap.
  thread_local std::vector<core::OccupancyIndex> pool;
  std::size_t active = 0;  ///< pool[0, active) are this run's machines.
  core::MachineFreeIndex free_at;  ///< Machine index by earliest-free time.
  std::vector<bool> sealed;        ///< Opened by a job wider than capacity.
  for (const FitJob& job : jobs) {
    const Interval& run = job.run;
    // An empty run draws no capacity anywhere.
    const int need = run.empty() ? 0 : job.width;
    // All machines from `idle` on are irrelevant: `idle` itself fits for
    // free, and first-fit never places beyond the first fitting machine.
    const int idle = need <= capacity ? free_at.first_at_most(run.lo) : -1;
    const int scan_end = idle >= 0 ? idle : static_cast<int>(active);
    int chosen = -1;
    for (int m = 0; m < scan_end; ++m) {
      if (!sealed[static_cast<std::size_t>(m)] &&
          pool[static_cast<std::size_t>(m)].max_coverage_in(run.lo, run.hi) +
                  need <=
              capacity) {
        chosen = m;
        break;
      }
    }
    if (chosen < 0) chosen = idle;
    if (chosen < 0) {
      if (active == pool.size()) {
        pool.emplace_back();
      } else {
        pool[active].clear();
      }
      ++active;
      // A sealed machine never reads as idle.
      chosen = free_at.push_back(
          need <= capacity ? run.hi
                           : std::numeric_limits<core::RealTime>::infinity());
      sealed.push_back(need > capacity);
    } else {
      free_at.set(chosen, std::max(free_at.key(chosen), run.hi));
    }
    pool[static_cast<std::size_t>(chosen)].insert(run, job.width);
    sched.placements[static_cast<std::size_t>(job.id)] = {
        machine_base + chosen, run.lo};
  }
  return static_cast<int>(active);
}

}  // namespace detail

BusySchedule first_fit(const ContinuousInstance& inst) {
  ABT_ASSERT(inst.all_interval_jobs(1e-6), "FIRSTFIT expects interval jobs");
  std::vector<JobId> order(static_cast<std::size_t>(inst.size()));
  std::iota(order.begin(), order.end(), JobId{0});
  std::stable_sort(order.begin(), order.end(), [&](JobId a, JobId b) {
    return inst.job(a).length > inst.job(b).length;
  });
  std::vector<detail::FitJob> jobs;
  jobs.reserve(order.size());
  for (JobId j : order) {
    const core::ContinuousJob& job = inst.job(j);
    jobs.push_back({j, {job.release, job.release + job.length}, 1});
  }
  BusySchedule sched;
  sched.placements.assign(static_cast<std::size_t>(inst.size()), {});
  detail::first_fit_runs(jobs, inst.capacity(), /*machine_base=*/0, sched);
  return sched;
}

}  // namespace abt::busy
