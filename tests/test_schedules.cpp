// Unit tests for the schedule data types and their feasibility checkers —
// these checkers gate every algorithm test, so they get their own coverage.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "busy_oracle.hpp"
#include "core/active_schedule.hpp"
#include "core/busy_schedule.hpp"
#include "core/solver.hpp"
#include "engine/builtin_solvers.hpp"
#include "engine/runner.hpp"
#include "preemptive_layout.hpp"

namespace abt::core {
namespace {

TEST(ActiveScheduleCheck, AcceptsValidSchedule) {
  const SlottedInstance inst({{0, 3, 2}, {0, 2, 1}}, 2);
  ActiveSchedule s;
  s.active_slots = {1, 2};
  s.job_slots = {{1, 2}, {1}};
  std::string why;
  EXPECT_TRUE(check_active_schedule(inst, s, &why)) << why;
  EXPECT_EQ(s.cost(), 2);
  const auto loads = slot_loads(inst, s);
  EXPECT_EQ(loads, (std::vector<int>{2, 1}));
}

TEST(ActiveScheduleCheck, RejectsWrongUnitCount) {
  const SlottedInstance inst({{0, 3, 2}}, 1);
  ActiveSchedule s;
  s.active_slots = {1};
  s.job_slots = {{1}};
  EXPECT_FALSE(check_active_schedule(inst, s));
}

TEST(ActiveScheduleCheck, RejectsInactiveSlotUse) {
  const SlottedInstance inst({{0, 3, 1}}, 1);
  ActiveSchedule s;
  s.active_slots = {2};
  s.job_slots = {{1}};
  EXPECT_FALSE(check_active_schedule(inst, s));
}

TEST(ActiveScheduleCheck, RejectsOutOfWindow) {
  const SlottedInstance inst({{2, 4, 1}}, 1);
  ActiveSchedule s;
  s.active_slots = {1, 3};
  s.job_slots = {{1}};
  EXPECT_FALSE(check_active_schedule(inst, s)) << "slot 1 predates release 2";
}

TEST(ActiveScheduleCheck, RejectsOverCapacity) {
  const SlottedInstance inst({{0, 1, 1}, {0, 1, 1}}, 1);
  ActiveSchedule s;
  s.active_slots = {1};
  s.job_slots = {{1}, {1}};
  EXPECT_FALSE(check_active_schedule(inst, s));
}

TEST(ActiveScheduleCheck, RejectsDuplicateUnitInSlot) {
  const SlottedInstance inst({{0, 4, 2}}, 3);
  ActiveSchedule s;
  s.active_slots = {1};
  s.job_slots = {{1, 1}};
  EXPECT_FALSE(check_active_schedule(inst, s))
      << "at most one unit of a job per slot";
}

TEST(BusyScheduleCheck, AcceptsValidPacking) {
  const ContinuousInstance inst({{0, 1, 1}, {0.5, 1.5, 1}, {0, 1, 1}}, 2);
  BusySchedule s;
  s.placements = {{0, 0.0}, {0, 0.5}, {1, 0.0}};
  std::string why;
  EXPECT_TRUE(check_busy_schedule(inst, s, &why)) << why;
  EXPECT_EQ(s.machine_count(), 2);
  EXPECT_NEAR(busy_cost(inst, s), 1.5 + 1.0, 1e-9);
  EXPECT_NEAR(machine_busy_time(inst, s, 0), 1.5, 1e-9);
}

TEST(BusyScheduleCheck, RejectsCapacityViolation) {
  const ContinuousInstance inst({{0, 1, 1}, {0, 1, 1}, {0, 1, 1}}, 2);
  BusySchedule s;
  s.placements = {{0, 0.0}, {0, 0.0}, {0, 0.0}};
  EXPECT_FALSE(check_busy_schedule(inst, s));
}

TEST(BusyScheduleCheck, RejectsStartBeforeRelease) {
  const ContinuousInstance inst({{1, 3, 1}}, 1);
  BusySchedule s;
  s.placements = {{0, 0.5}};
  EXPECT_FALSE(check_busy_schedule(inst, s));
}

TEST(BusyScheduleCheck, RejectsStartPastLatestStart) {
  const ContinuousInstance inst({{1, 3, 1}}, 1);
  BusySchedule s;
  s.placements = {{0, 2.5}};
  EXPECT_FALSE(check_busy_schedule(inst, s));
}

TEST(BusyScheduleCheck, BackToBackJobsDoNotCollide) {
  const ContinuousInstance inst({{0, 1, 1}, {1, 2, 1}}, 1);
  BusySchedule s;
  s.placements = {{0, 0.0}, {0, 1.0}};
  std::string why;
  EXPECT_TRUE(check_busy_schedule(inst, s, &why))
      << "half-open intervals: " << why;
}

TEST(PreemptiveCheck, AcceptsSplitJob) {
  const ContinuousInstance inst({{0, 10, 3}}, 1);
  PreemptiveBusySchedule s = testutil::to_flat({{{0, {1, 2}}, {0, {5, 7}}}});
  std::string why;
  EXPECT_TRUE(check_preemptive_schedule(inst, s, &why)) << why;
  EXPECT_NEAR(busy_cost(inst, s), 3.0, 1e-9);
}

TEST(PreemptiveCheck, RejectsShortfall) {
  const ContinuousInstance inst({{0, 10, 3}}, 1);
  PreemptiveBusySchedule s = testutil::to_flat({{{0, {1, 2}}}});
  EXPECT_FALSE(check_preemptive_schedule(inst, s));
}

TEST(PreemptiveCheck, RejectsOverlappingPiecesOfOneJob) {
  const ContinuousInstance inst({{0, 10, 4}}, 5);
  PreemptiveBusySchedule s = testutil::to_flat({{{0, {1, 3}}, {1, {2, 4}}}});
  EXPECT_FALSE(check_preemptive_schedule(inst, s))
      << "a job may run on at most one machine at a time";
}

TEST(PreemptiveCheck, RejectsMalformedPieceOffsets) {
  const ContinuousInstance inst({{0, 2, 1}, {0, 2, 1}}, 1);
  PreemptiveBusySchedule s =
      testutil::to_flat({{{0, {0, 1}}}, {{0, {1, 2}}}});
  std::string why;
  ASSERT_TRUE(check_preemptive_schedule(inst, s, &why)) << why;
  s.pieces.first = {0, 2, 1};  // job 1's range runs backwards
  EXPECT_FALSE(check_preemptive_schedule(inst, s, &why));
  EXPECT_EQ(why, "piece offsets out of order");
  s.pieces.first = {0, 1, 1};  // job 1's piece belongs to no job
  EXPECT_FALSE(check_preemptive_schedule(inst, s, &why));
  EXPECT_EQ(why, "piece offsets out of order");
  s.pieces.first = {0, 1};  // one job short
  EXPECT_FALSE(check_preemptive_schedule(inst, s, &why));
  EXPECT_EQ(why, "pieces count mismatch");
}

TEST(PreemptiveCheck, RejectsPieceOutsideWindow) {
  const ContinuousInstance inst({{2, 5, 1}}, 1);
  PreemptiveBusySchedule s = testutil::to_flat({{{0, {0, 1}}}});
  EXPECT_FALSE(check_preemptive_schedule(inst, s));
}

TEST(PreemptiveCheck, EnforcesMachineCapacity) {
  const ContinuousInstance inst({{0, 2, 2}, {0, 2, 2}, {0, 2, 2}}, 2);
  PreemptiveBusySchedule s =
      testutil::to_flat({{{0, {0, 2}}}, {{0, {0, 2}}}, {{0, {0, 2}}}});
  EXPECT_FALSE(check_preemptive_schedule(inst, s));
  s = testutil::to_flat({{{0, {0, 2}}}, {{0, {0, 2}}}, {{1, {0, 2}}}});
  std::string why;
  EXPECT_TRUE(check_preemptive_schedule(inst, s, &why)) << why;
}

TEST(PreemptiveCheck, ClosesRunsBeforeOpeningAtTheSameTime) {
  // With eps 0 nothing is shrunk: [0, 1) and [1, 2) touch at exactly 1,
  // and half-open runs there do not overlap, so g = 1 holds. Sorting the
  // pieces out of order exercises the sorted-runs path too.
  const ContinuousInstance inst({{0, 2, 1}, {0, 2, 1}, {0, 3, 2}}, 1);
  testutil::NestedPieces pieces = {
      {{0, {0, 1}}}, {{0, {1, 2}}}, {{1, {2, 3}}, {1, {0, 1}}}};
  std::string why;
  EXPECT_TRUE(check_preemptive_schedule(inst, testutil::to_flat(pieces), &why,
                                        0.0))
      << why;
  // Job 1 joins machine 1, where it touches [2, 3) but meets [0.5, 1.5).
  pieces[2][1].run = {0.5, 1.5};
  pieces[1][0].machine = 1;
  EXPECT_FALSE(check_preemptive_schedule(inst, testutil::to_flat(pieces), &why,
                                         0.0));
  EXPECT_EQ(why, "machine 1 concurrency 2 > g");
}

/// busy_cost on the machine-major order against the frozen per-machine
/// span_of sum: the same double, bit for bit, on every applicable
/// registered busy solver's schedule across the random families and sizes
/// on both sides of radix_sort's cutover.
TEST(BusyCost, BitIdenticalToFrozen) {
  const SolverRegistry& registry = engine::shared_registry();
  int compared = 0;
  for (const char* family :
       {"interval", "flexible", "bursty", "clique", "proper", "laminar"}) {
    for (const int n : {1, 2, 48, 255, 256, 1024, 4096}) {
      engine::ScenarioSpec spec;
      spec.name = family;
      spec.n = n;
      spec.g = n >= 1024 ? 8 : 3;
      spec.seed = static_cast<std::uint64_t>(n) + 11;
      const auto problem = engine::make_scenario(spec);
      ASSERT_TRUE(problem.has_value()) << family << " " << n;
      const ContinuousInstance& inst = problem->continuous;
      for (const Solver* solver : registry.selection(*problem)) {
        const Solution sol = registry.run(*solver, *problem);
        if (!sol.busy.has_value()) continue;
        const RealTime fast = busy_cost(inst, *sol.busy);
        const RealTime slow = oracle::busy_cost(inst, *sol.busy);
        EXPECT_EQ(std::memcmp(&fast, &slow, sizeof fast), 0)
            << solver->name << " on " << family << " n " << n << ": " << fast
            << " vs " << slow;
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 6 * 7 * 3);
}

}  // namespace
}  // namespace abt::core
