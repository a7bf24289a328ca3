#pragma once

// Test- and bench-side bridge between core::PreemptiveBusySchedule's flat
// piece array and the nested layout, one piece list per job, that tests
// write schedules in and the frozen naive oracle builds its results in.
//
// Include this header instead of oracles/naive_baselines.hpp: it declares
// the naive preemptive algorithms' result types, in the nested layout,
// under busy::naive, where they hide the library's flat ones, so the
// frozen header compiles unedited.

#include <cstddef>
#include <span>
#include <vector>

#include "busy/preemptive.hpp"
#include "core/busy_schedule.hpp"
#include "core/interval.hpp"

namespace abt::testutil {

using Piece = core::PreemptiveBusySchedule::Piece;
/// One piece list per job, indexed by JobId.
using NestedPieces = std::vector<std::vector<Piece>>;

inline core::PreemptiveBusySchedule to_flat(const NestedPieces& nested) {
  core::PreemptiveBusySchedule sched;
  sched.pieces.first.push_back(0);
  for (const std::vector<Piece>& pieces : nested) {
    sched.pieces.all.insert(sched.pieces.all.end(), pieces.begin(),
                            pieces.end());
    sched.pieces.first.push_back(sched.pieces.all.size());
  }
  return sched;
}

inline NestedPieces to_nested(const core::PreemptiveBusySchedule& sched) {
  NestedPieces nested;
  for (const std::span<const Piece> pieces : sched.pieces) {
    nested.emplace_back(pieces.begin(), pieces.end());
  }
  return nested;
}

}  // namespace abt::testutil

namespace abt::busy::naive {

/// A preemptive schedule in the nested layout, as the frozen naive
/// algorithms build it. Converts to the flat layout, which is how their
/// core::busy_cost call reaches the library.
struct NestedPreemptiveSchedule {
  testutil::NestedPieces pieces;

  operator core::PreemptiveBusySchedule() const {
    return testutil::to_flat(pieces);
  }
};

struct PreemptiveUnboundedSolution {
  double busy_time = 0.0;
  std::vector<core::Interval> open;
  NestedPreemptiveSchedule schedule;
};

struct PreemptiveBoundedSolution {
  double busy_time = 0.0;
  double opt_infinity = 0.0;
  NestedPreemptiveSchedule schedule;
};

}  // namespace abt::busy::naive

#include "naive_baselines.hpp"
