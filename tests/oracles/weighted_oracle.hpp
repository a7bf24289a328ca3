#pragma once

// The copy-and-rescan weighted heuristics that busy/weighted.cpp shipped
// before they moved onto the shared index-backed first-fit driver, kept
// verbatim as the reference for (a) the placement-equivalence suite in
// tests/test_weighted.cpp and (b) BM_WeightedFirstFitNaive in
// bench/bench_perf.cpp — plus the per-machine quadratic rescan checker the
// sweep checker replaced, the reference of tests/test_fuzz_checkers.cpp.
// Test- and bench-side only, never linked into the library. Do not
// optimize this header; its value is staying frozen.

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "busy/dp_unbounded.hpp"
#include "busy/weighted.hpp"
#include "core/assert.hpp"
#include "core/busy_schedule.hpp"
#include "core/interval.hpp"

namespace abt::busy::oracle {

/// Peak cumulative width on one machine, by sweep over the committed runs.
struct WeightedRun {
  core::Interval run;
  int width;
};

inline int peak_width(const std::vector<WeightedRun>& runs) {
  int best = 0;
  for (const WeightedRun& probe : runs) {
    int at = 0;
    for (const WeightedRun& other : runs) {
      if (other.run.lo <= probe.run.lo && probe.run.lo < other.run.hi) {
        at += other.width;
      }
    }
    best = std::max(best, at);
  }
  return best;
}

/// Width-aware first fit over the given job order; `cap` is the machine
/// budget (g for the full model, 1x widths replaced by 1 for the wide
/// lane). Returns machine indices offset by `machine_base`.
inline void first_fit_into(const WeightedInstance& inst,
                           const std::vector<core::JobId>& order, int cap,
                           bool unit_widths, int machine_base,
                           core::BusySchedule& sched, int* machines_used) {
  std::vector<std::vector<WeightedRun>> machines;
  for (core::JobId j : order) {
    const WeightedJob& wj = inst.job(j);
    const WeightedRun candidate{
        {wj.job.release, wj.job.release + wj.job.length},
        unit_widths ? 1 : wj.width};
    int chosen = -1;
    for (std::size_t m = 0; m < machines.size(); ++m) {
      std::vector<WeightedRun> trial = machines[m];
      trial.push_back(candidate);
      if (peak_width(trial) <= cap) {
        chosen = static_cast<int>(m);
        break;
      }
    }
    if (chosen < 0) {
      machines.emplace_back();
      chosen = static_cast<int>(machines.size()) - 1;
    }
    machines[static_cast<std::size_t>(chosen)].push_back(candidate);
    sched.placements[static_cast<std::size_t>(j)] = {machine_base + chosen,
                                                     wj.job.release};
  }
  *machines_used = static_cast<int>(machines.size());
}

inline std::vector<core::JobId> by_length_desc(
    const WeightedInstance& inst, const std::vector<core::JobId>& ids) {
  std::vector<core::JobId> order = ids;
  std::stable_sort(order.begin(), order.end(),
                   [&](core::JobId a, core::JobId b) {
                     return inst.job(a).job.length > inst.job(b).job.length;
                   });
  return order;
}

inline core::BusySchedule weighted_first_fit(const WeightedInstance& inst) {
  ABT_ASSERT(inst.all_interval_jobs(1e-6),
             "weighted FIRSTFIT expects interval jobs");
  core::BusySchedule sched;
  sched.placements.assign(static_cast<std::size_t>(inst.size()), {});
  std::vector<core::JobId> all(static_cast<std::size_t>(inst.size()));
  std::iota(all.begin(), all.end(), core::JobId{0});
  int used = 0;
  first_fit_into(inst, by_length_desc(inst, all), inst.capacity(),
                 /*unit_widths=*/false, /*machine_base=*/0, sched, &used);
  return sched;
}

inline core::BusySchedule narrow_wide_split(const WeightedInstance& inst) {
  ABT_ASSERT(inst.all_interval_jobs(1e-6),
             "narrow/wide split expects interval jobs");
  core::BusySchedule sched;
  sched.placements.assign(static_cast<std::size_t>(inst.size()), {});

  std::vector<core::JobId> narrow;
  std::vector<core::JobId> wide;
  for (core::JobId j = 0; j < inst.size(); ++j) {
    (2 * inst.job(j).width > inst.capacity() ? wide : narrow).push_back(j);
  }
  // Wide jobs: at most one can share capacity with another wide job, so
  // pack them as a unit-capacity FIRSTFIT (disjoint wide jobs share a
  // machine).
  int wide_machines = 0;
  first_fit_into(inst, by_length_desc(inst, wide), /*cap=*/1,
                 /*unit_widths=*/true, /*machine_base=*/0, sched,
                 &wide_machines);
  // Narrow jobs: width-aware FIRSTFIT on fresh machines.
  int narrow_machines = 0;
  first_fit_into(inst, by_length_desc(inst, narrow), inst.capacity(),
                 /*unit_widths=*/false, /*machine_base=*/wide_machines, sched,
                 &narrow_machines);
  return sched;
}

inline core::BusySchedule schedule_weighted_flexible(
    const WeightedInstance& inst) {
  const UnboundedSolution dp = solve_unbounded(inst.unweighted());
  std::vector<WeightedJob> frozen;
  frozen.reserve(static_cast<std::size_t>(inst.size()));
  for (core::JobId j = 0; j < inst.size(); ++j) {
    const double s = dp.starts[static_cast<std::size_t>(j)];
    frozen.push_back(
        {{s, s + inst.job(j).job.length, inst.job(j).job.length},
         inst.job(j).width});
  }
  const WeightedInstance frozen_inst(std::move(frozen), inst.capacity());
  core::BusySchedule sched = oracle::narrow_wide_split(frozen_inst);
  // Report starts of the original (flexible) jobs.
  for (core::JobId j = 0; j < inst.size(); ++j) {
    sched.placements[static_cast<std::size_t>(j)].start =
        dp.starts[static_cast<std::size_t>(j)];
  }
  return sched;
}

/// busy::check_weighted_schedule before the sweep: every machine's jobs
/// gathered by a full scan of the placements, then peak_width on each.
inline bool check_weighted_schedule(const WeightedInstance& inst,
                                    const core::BusySchedule& sched,
                                    std::string* why = nullptr,
                                    double eps = 1e-9) {
  auto fail = [&](std::string reason) {
    if (why != nullptr) *why = std::move(reason);
    return false;
  };
  if (static_cast<int>(sched.placements.size()) != inst.size()) {
    return fail("placement count mismatch");
  }
  int machines = 0;
  for (core::JobId j = 0; j < inst.size(); ++j) {
    const auto& p = sched.placements[static_cast<std::size_t>(j)];
    const core::ContinuousJob& job = inst.job(j).job;
    if (p.machine < 0) return fail("job " + std::to_string(j) + " unassigned");
    machines = std::max(machines, p.machine + 1);
    if (p.start < job.release - eps || p.start > job.latest_start() + eps) {
      return fail("job " + std::to_string(j) + " start outside window");
    }
  }
  for (int m = 0; m < machines; ++m) {
    std::vector<WeightedRun> runs;
    for (core::JobId j = 0; j < inst.size(); ++j) {
      const auto& p = sched.placements[static_cast<std::size_t>(j)];
      if (p.machine != m) continue;
      runs.push_back({{p.start, p.start + inst.job(j).job.length - eps},
                      inst.job(j).width});
    }
    if (peak_width(runs) > inst.capacity()) {
      return fail("machine " + std::to_string(m) + " exceeds width capacity");
    }
  }
  return true;
}

}  // namespace abt::busy::oracle
