#pragma once

// core::check_preemptive_schedule before its flat radix-sorted sweep: a
// fresh run list per job, sorted by lo, then per machine a vector of
// eps-shrunk runs and an event-sort max concurrency (core::max_concurrency
// at the time, copied here so the reference does not move with the
// library). The reference of tests/test_fuzz_checkers.cpp and of
// BM_CheckPreemptiveNaive in bench/bench_perf.cpp. Test- and bench-side
// only, never linked into the library. Do not optimize this header; its
// value is staying frozen.

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "core/busy_schedule.hpp"
#include "core/continuous_instance.hpp"
#include "core/interval.hpp"

namespace abt::busy::oracle {

/// Max number of simultaneously open half-open intervals: one sort of
/// (coordinate, +-1) events, closings first at equal coordinates.
inline int max_concurrency(const std::vector<core::Interval>& ivs) {
  std::vector<std::pair<core::RealTime, int>> events;
  for (const core::Interval& iv : ivs) {
    if (iv.empty()) continue;
    events.emplace_back(iv.lo, +1);
    events.emplace_back(iv.hi, -1);
  }
  std::sort(events.begin(), events.end(),
            [](const auto& a, const auto& b) {
              return a.first < b.first ||
                     (a.first == b.first && a.second < b.second);
            });
  int cur = 0;
  int best = 0;
  for (const auto& event : events) {
    cur += event.second;
    best = std::max(best, cur);
  }
  return best;
}

inline bool check_preemptive_schedule(
    const core::ContinuousInstance& inst,
    const core::PreemptiveBusySchedule& sched, std::string* why = nullptr,
    core::RealTime eps = 1e-6) {
  auto fail = [&](std::string reason) {
    if (why != nullptr) *why = std::move(reason);
    return false;
  };
  if (static_cast<int>(sched.pieces.size()) != inst.size()) {
    return fail("pieces count mismatch");
  }
  int machines = 0;
  for (core::JobId j = 0; j < inst.size(); ++j) {
    const core::ContinuousJob& job = inst.job(j);
    std::vector<core::Interval> runs;
    core::RealTime total = 0.0;
    for (const auto& piece : sched.pieces[static_cast<std::size_t>(j)]) {
      if (piece.machine < 0) return fail("piece with no machine");
      machines = std::max(machines, piece.machine + 1);
      if (piece.run.empty()) return fail("empty piece");
      if (piece.run.lo < job.release - eps ||
          piece.run.hi > job.deadline + eps) {
        return fail("job " + std::to_string(j) + " piece outside window");
      }
      total += piece.run.length();
      runs.push_back(piece.run);
    }
    if (std::abs(total - job.length) > eps) {
      return fail("job " + std::to_string(j) + " scheduled " +
                  std::to_string(total) + " units, needs " +
                  std::to_string(job.length));
    }
    // Pieces of one job must not overlap (at most one machine at a time).
    std::sort(runs.begin(), runs.end(),
              [](const core::Interval& a, const core::Interval& b) {
                return a.lo < b.lo;
              });
    for (std::size_t i = 1; i < runs.size(); ++i) {
      if (runs[i].lo < runs[i - 1].hi - eps) {
        return fail("job " + std::to_string(j) + " overlapping pieces");
      }
    }
  }
  // Capacity per machine.
  std::vector<std::vector<core::Interval>> per_machine(
      static_cast<std::size_t>(machines));
  for (core::JobId j = 0; j < inst.size(); ++j) {
    for (const auto& piece : sched.pieces[static_cast<std::size_t>(j)]) {
      core::Interval iv = piece.run;
      iv.hi -= eps;
      per_machine[static_cast<std::size_t>(piece.machine)].push_back(iv);
    }
  }
  for (std::size_t m = 0; m < per_machine.size(); ++m) {
    const int conc = max_concurrency(per_machine[m]);
    if (conc > inst.capacity()) {
      return fail("machine " + std::to_string(m) + " concurrency " +
                  std::to_string(conc) + " > g");
    }
  }
  return true;
}

}  // namespace abt::busy::oracle
