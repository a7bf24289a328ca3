#include "active/feasibility.hpp"

#include <gtest/gtest.h>

#include "active/slot_network.hpp"
#include "core/active_schedule.hpp"
#include "core/rng.hpp"
#include "gen/random_instances.hpp"

namespace abt::active {
namespace {

using core::SlottedInstance;
using core::SlottedJob;

TEST(Feasibility, SingleJobNeedsItsWindow) {
  const SlottedInstance inst({{0, 2, 2}}, 1);  // slots 1,2 both needed
  EXPECT_TRUE(is_feasible(inst));
  EXPECT_TRUE(is_feasible_with_slots(inst, {1, 2}));
  EXPECT_FALSE(is_feasible_with_slots(inst, {1}));
  EXPECT_FALSE(is_feasible_with_slots(inst, {}));
}

TEST(Feasibility, CapacityBindsConcurrentJobs) {
  // Three unit jobs all in slot 1, capacity 2: infeasible.
  const SlottedInstance inst({{0, 1, 1}, {0, 1, 1}, {0, 1, 1}}, 2);
  EXPECT_FALSE(is_feasible(inst));
  const SlottedInstance ok({{0, 1, 1}, {0, 1, 1}}, 2);
  EXPECT_TRUE(is_feasible(ok));
}

TEST(Feasibility, CancelledFlowIsNeverReportedInfeasible) {
  // This feasible instance must come back kCancelled (not kInfeasible)
  // when the stop predicate trips: an abandoned flow is only a lower
  // bound, so its deficit proves nothing.
  const SlottedInstance inst({{0, 2, 2}, {0, 2, 1}}, 2);
  ASSERT_TRUE(is_feasible(inst));
  EXPECT_EQ(feasibility_with_slots(inst, {1, 2}, [] { return true; }),
            FeasStatus::kCancelled);
  EXPECT_EQ(feasibility_with_slots(inst, {1, 2}, [] { return false; }),
            FeasStatus::kFeasible);
  EXPECT_EQ(feasibility_with_slots(inst, {1}, {}), FeasStatus::kInfeasible);
}

TEST(Feasibility, CancelledExtractionSetsFlagInsteadOfInfeasible) {
  const SlottedInstance inst({{0, 2, 2}}, 1);
  bool cancelled = false;
  const auto sched =
      extract_assignment(inst, {1, 2}, [] { return true; }, &cancelled);
  EXPECT_FALSE(sched.has_value());
  EXPECT_TRUE(cancelled);
  cancelled = true;
  const auto ok = extract_assignment(inst, {1, 2}, {}, &cancelled);
  EXPECT_TRUE(ok.has_value());
  EXPECT_FALSE(cancelled);
}

TEST(Feasibility, ExtractAssignmentIsCheckedFeasible) {
  const SlottedInstance inst({{0, 4, 2}, {1, 3, 2}, {0, 2, 1}}, 2);
  const auto sched = extract_assignment(inst, {1, 2, 3, 4});
  ASSERT_TRUE(sched.has_value());
  std::string why;
  EXPECT_TRUE(core::check_active_schedule(inst, *sched, &why)) << why;
}

TEST(Feasibility, ExtractAssignmentFailsWhenInfeasible) {
  const SlottedInstance inst({{0, 2, 2}, {0, 2, 2}, {0, 2, 2}}, 2);
  EXPECT_FALSE(extract_assignment(inst, {1}).has_value());
}

TEST(Feasibility, CandidateSlotsSkipDeadTime) {
  const SlottedInstance inst({{0, 2, 1}, {5, 7, 1}}, 1);
  const std::vector<core::SlotTime> expected = {1, 2, 6, 7};
  EXPECT_EQ(candidate_slots(inst), expected);
}

TEST(Feasibility, EmptyInstanceIsFeasible) {
  const SlottedInstance inst({}, 1);
  EXPECT_TRUE(is_feasible(inst));
  EXPECT_TRUE(candidate_slots(inst).empty());
}

/// Property: Hall-style sanity — restricting feasible instances to fewer
/// slots never makes them feasible again after they turn infeasible
/// (monotonicity), and extract agrees with is_feasible.
class FeasibilityRandom : public ::testing::TestWithParam<int> {};

TEST_P(FeasibilityRandom, ExtractionAgreesWithDecisionAndIsValid) {
  core::Rng rng(static_cast<std::uint64_t>(GetParam()) * 77ULL + 5);
  for (int trial = 0; trial < 30; ++trial) {
    gen::SlottedParams params;
    params.num_jobs = static_cast<int>(rng.uniform_int(1, 8));
    params.horizon = 10;
    params.capacity = static_cast<int>(rng.uniform_int(1, 3));
    params.max_length = 3;
    params.max_slack = 4;
    const SlottedInstance inst = gen::random_slotted(rng, params);

    std::vector<core::SlotTime> slots = candidate_slots(inst);
    // Random subset of candidate slots.
    std::vector<core::SlotTime> subset;
    for (core::SlotTime t : slots) {
      if (rng.flip(0.7)) subset.push_back(t);
    }
    const bool feasible = is_feasible_with_slots(inst, subset);
    const auto sched = extract_assignment(inst, subset);
    EXPECT_EQ(feasible, sched.has_value());
    if (sched.has_value()) {
      std::string why;
      EXPECT_TRUE(core::check_active_schedule(inst, *sched, &why)) << why;
      // Monotonicity: adding back all slots stays feasible.
      EXPECT_TRUE(is_feasible_with_slots(inst, slots));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FeasibilityRandom, ::testing::Range(1, 9));

/// Property: a SlotNetwork grown from empty (admit_job / open_slot, then
/// route) gives every intermediate job and slot set the same verdict as a
/// fresh flow over just those jobs and slots.
TEST_P(FeasibilityRandom, GrownNetworkAgreesWithFreshFlow) {
  core::Rng rng(static_cast<std::uint64_t>(GetParam()) * 131ULL + 7);
  for (int trial = 0; trial < 20; ++trial) {
    gen::SlottedParams params;
    params.num_jobs = static_cast<int>(rng.uniform_int(1, 10));
    params.horizon = 12;
    params.capacity = static_cast<int>(rng.uniform_int(1, 3));
    params.max_length = 3;
    params.max_slack = 4;
    const SlottedInstance inst = gen::random_slotted(rng, params);
    const std::vector<core::SlotTime> slots = candidate_slots(inst);

    SlotNetwork network = slot_network(inst, slots);
    network.start_empty();
    EXPECT_EQ(network.route(), 0);  // nothing admitted yet
    std::vector<SlottedJob> admitted;
    std::vector<core::SlotTime> open;
    int next_job = 0;
    std::size_t next_slot = 0;
    while (next_job < inst.size() || next_slot < slots.size()) {
      const bool add_job =
          next_slot == slots.size() ||
          (next_job < inst.size() && rng.flip(0.5));
      if (add_job) {
        network.admit_job(next_job);
        admitted.push_back(inst.job(next_job++));
      } else {
        network.open_slot(static_cast<int>(next_slot));
        if (rng.flip(0.3)) network.open_slot(static_cast<int>(next_slot));
        open.push_back(slots[next_slot++]);
      }
      const SlottedInstance prefix(admitted, inst.capacity());
      EXPECT_EQ(network.route() == 0, is_feasible_with_slots(prefix, open))
          << "trial " << trial << ", " << admitted.size() << " jobs, "
          << open.size() << " slots";
    }
  }
}

}  // namespace
}  // namespace abt::active
