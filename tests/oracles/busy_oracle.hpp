#pragma once

// core::busy_cost and core::check_busy_schedule before their machine-major
// radix pass: a vector of intervals per machine, then per machine a sorted
// interval union (busy_cost) or an eps-shrunk copy and an event-sort max
// concurrency (the checker), with core::interval_union, span_of and
// max_concurrency as they were, copied here so the reference does not
// move with the library. The reference of tests/test_fuzz_checkers.cpp,
// tests/test_schedules.cpp and of BM_CheckBusyNaive / BM_BusyCostNaive in
// bench/bench_perf.cpp. Test- and bench-side only, never linked into the
// library. Do not optimize this header; its value is staying frozen.

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/busy_schedule.hpp"
#include "core/continuous_instance.hpp"
#include "core/interval.hpp"

namespace abt::core::oracle {

inline std::vector<std::vector<Interval>> machine_intervals(
    const ContinuousInstance& inst, const BusySchedule& sched) {
  std::vector<std::vector<Interval>> per_machine(
      static_cast<std::size_t>(sched.machine_count()));
  for (JobId j = 0; j < inst.size(); ++j) {
    const Placement& p = sched.placements[static_cast<std::size_t>(j)];
    per_machine[static_cast<std::size_t>(p.machine)].push_back(
        {p.start, p.start + inst.job(j).length});
  }
  return per_machine;
}

inline std::vector<Interval> interval_union(std::vector<Interval> ivs,
                                            RealTime eps = 1e-12) {
  std::erase_if(ivs, [](const Interval& iv) { return iv.empty(); });
  std::sort(ivs.begin(), ivs.end(), [](const Interval& a, const Interval& b) {
    return a.lo < b.lo || (a.lo == b.lo && a.hi < b.hi);
  });
  std::vector<Interval> out;
  for (const Interval& iv : ivs) {
    if (!out.empty() && iv.lo <= out.back().hi + eps) {
      out.back().hi = std::max(out.back().hi, iv.hi);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

inline RealTime span_of(const std::vector<Interval>& ivs) {
  RealTime total = 0.0;
  for (const Interval& iv : oracle::interval_union(ivs)) total += iv.length();
  return total;
}

/// Max number of simultaneously open half-open intervals: one sort of
/// (coordinate, +-1) events, closings first at equal coordinates.
inline int max_concurrency(const std::vector<Interval>& ivs) {
  std::vector<std::pair<RealTime, int>> events;
  for (const Interval& iv : ivs) {
    if (iv.empty()) continue;
    events.emplace_back(iv.lo, +1);
    events.emplace_back(iv.hi, -1);
  }
  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    return a.first < b.first || (a.first == b.first && a.second < b.second);
  });
  int cur = 0;
  int best = 0;
  for (const auto& event : events) {
    cur += event.second;
    best = std::max(best, cur);
  }
  return best;
}

inline RealTime busy_cost(const ContinuousInstance& inst,
                          const BusySchedule& sched) {
  RealTime total = 0.0;
  for (const auto& ivs : oracle::machine_intervals(inst, sched)) {
    total += oracle::span_of(ivs);
  }
  return total;
}

inline bool check_busy_schedule(const ContinuousInstance& inst,
                                const BusySchedule& sched,
                                std::string* why = nullptr,
                                RealTime eps = 1e-9) {
  auto fail = [&](std::string reason) {
    if (why != nullptr) *why = std::move(reason);
    return false;
  };
  if (static_cast<int>(sched.placements.size()) != inst.size()) {
    return fail("placement count mismatch");
  }
  for (JobId j = 0; j < inst.size(); ++j) {
    const ContinuousJob& job = inst.job(j);
    const Placement& p = sched.placements[static_cast<std::size_t>(j)];
    if (p.machine < 0) {
      return fail("job " + std::to_string(j) + " unassigned");
    }
    if (p.start < job.release - eps || p.start > job.latest_start() + eps) {
      return fail("job " + std::to_string(j) + " start " +
                  std::to_string(p.start) + " outside [" +
                  std::to_string(job.release) + ", " +
                  std::to_string(job.latest_start()) + "]");
    }
  }
  const auto per_machine = oracle::machine_intervals(inst, sched);
  for (std::size_t m = 0; m < per_machine.size(); ++m) {
    std::vector<Interval> shrunk = per_machine[m];
    for (Interval& iv : shrunk) iv.hi -= eps;
    const int conc = oracle::max_concurrency(shrunk);
    if (conc > inst.capacity()) {
      return fail("machine " + std::to_string(m) + " runs " +
                  std::to_string(conc) + " jobs > g=" +
                  std::to_string(inst.capacity()));
    }
  }
  return true;
}

}  // namespace abt::core::oracle
