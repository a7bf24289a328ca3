#include "active/multi_window.hpp"

#include <gtest/gtest.h>

#include "active/exact.hpp"
#include "active/feasibility.hpp"
#include "active/minimal_feasible.hpp"
#include "core/rng.hpp"
#include "gen/random_instances.hpp"

namespace abt::active {
namespace {

TEST(MultiWindow, StructuralValidation) {
  MultiWindowInstance bad({{{{0, 2}, {1, 5}}, 2}}, 1);  // overlapping windows
  EXPECT_FALSE(bad.structurally_valid());
  MultiWindowInstance tiny({{{{0, 1}}, 2}}, 1);  // window smaller than length
  EXPECT_FALSE(tiny.structurally_valid());
  MultiWindowInstance ok({{{{0, 2}, {4, 6}}, 3}}, 1);
  std::string why;
  EXPECT_TRUE(ok.structurally_valid(&why)) << why;
}

TEST(MultiWindow, CandidateSlotsUnionOfWindows) {
  const MultiWindowInstance inst({{{{0, 2}, {5, 7}}, 2}}, 1);
  const std::vector<core::SlotTime> expected = {1, 2, 6, 7};
  EXPECT_EQ(candidate_slots(inst), expected);
}

TEST(MultiWindow, SplitWindowJobUsesBothPieces) {
  // 3 units across windows {1,2} and {6,7}: any 3 of those 4 slots.
  const MultiWindowInstance inst({{{{0, 2}, {5, 7}}, 3}}, 1);
  EXPECT_EQ(mw_brute_force_opt(inst), 3);
  const auto sched = solve_minimal_feasible(inst);
  ASSERT_TRUE(sched.has_value());
  EXPECT_EQ(sched->cost(), 3);
  std::string why;
  EXPECT_TRUE(core::check_active_schedule(inst, *sched, &why)) << why;
}

TEST(MultiWindow, InfeasibleWhenWindowsOverCommitted) {
  // Two 2-unit jobs sharing a single 2-slot window, g = 1.
  const MultiWindowInstance inst({{{{0, 2}}, 2}, {{{0, 2}}, 2}}, 1);
  EXPECT_FALSE(solve_minimal_feasible(inst).has_value());
  EXPECT_EQ(mw_brute_force_opt(inst), -1);
}

TEST(MultiWindow, SharedHoleForcesCooperation) {
  // Jobs can dodge each other across their window pieces (g = 1):
  // A: {1,2} or {5,6}; B: {1,2} only. OPT = 4: B takes 1,2; A takes 5,6.
  const MultiWindowInstance inst({{{{0, 2}, {4, 6}}, 2}, {{{0, 2}}, 2}}, 1);
  EXPECT_EQ(mw_brute_force_opt(inst), 4);
  const auto sched = solve_minimal_feasible(inst);
  ASSERT_TRUE(sched.has_value());
  EXPECT_EQ(sched->cost(), 4);
}

TEST(MultiWindow, SingleWindowJobsMatchRegularActiveTime) {
  // A multi-window instance whose jobs all have one window must agree with
  // the single-window solver end to end.
  core::Rng rng(404);
  for (int trial = 0; trial < 10; ++trial) {
    gen::SlottedParams params;
    params.num_jobs = static_cast<int>(rng.uniform_int(1, 6));
    params.horizon = 8;
    params.capacity = static_cast<int>(rng.uniform_int(1, 3));
    const core::SlottedInstance single =
        gen::random_feasible_slotted(rng, params);
    std::vector<MultiWindowJob> jobs;
    for (const auto& j : single.jobs()) {
      jobs.push_back({{{j.release, j.deadline}}, j.length});
    }
    const MultiWindowInstance multi(std::move(jobs), single.capacity());
    const auto exact = solve_exact(single);
    ASSERT_TRUE(exact.has_value());
    EXPECT_EQ(mw_brute_force_opt(multi), exact->schedule.cost());
  }
}

/// Property: minimal feasible is feasible, minimal, and sandwiched between
/// OPT and the candidate count.
class MultiWindowRandom : public ::testing::TestWithParam<int> {};

TEST_P(MultiWindowRandom, MinimalFeasibleSandwiched) {
  core::Rng rng(static_cast<std::uint64_t>(GetParam()) * 52711ULL);
  for (int trial = 0; trial < 10; ++trial) {
    // Random multi-window jobs over horizon 10 with 1-2 windows each.
    std::vector<MultiWindowJob> jobs;
    const int n = static_cast<int>(rng.uniform_int(1, 5));
    for (int i = 0; i < n; ++i) {
      MultiWindowJob job;
      const auto r1 = rng.uniform_int(0, 4);
      const auto d1 = rng.uniform_int(r1 + 1, r1 + 3);
      job.windows.emplace_back(r1, d1);
      if (rng.flip(0.6)) {
        const auto r2 = rng.uniform_int(d1, 8);
        const auto d2 = rng.uniform_int(r2 + 1, 10);
        job.windows.emplace_back(r2, d2);
      }
      job.length = rng.uniform_int(1, std::min<core::SlotTime>(
                                          3, job.window_slots()));
      jobs.push_back(std::move(job));
    }
    const MultiWindowInstance inst(std::move(jobs), 2);
    ASSERT_TRUE(inst.structurally_valid());

    const long opt = mw_brute_force_opt(inst);
    const auto sched = solve_minimal_feasible(inst);
    ASSERT_EQ(opt >= 0, sched.has_value());
    if (!sched.has_value()) continue;

    std::string why;
    EXPECT_TRUE(core::check_active_schedule(inst, *sched, &why)) << why;
    EXPECT_GE(sched->cost(), opt);
    // Minimality: removing any slot breaks it.
    for (std::size_t drop = 0; drop < sched->active_slots.size(); ++drop) {
      std::vector<core::SlotTime> fewer;
      for (std::size_t i = 0; i < sched->active_slots.size(); ++i) {
        if (i != drop) fewer.push_back(sched->active_slots[i]);
      }
      EXPECT_FALSE(is_feasible_with_slots(inst, fewer));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiWindowRandom, ::testing::Range(1, 9));

}  // namespace
}  // namespace abt::active
