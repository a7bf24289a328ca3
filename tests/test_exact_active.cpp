#include "active/exact.hpp"

#include <gtest/gtest.h>

#include "active/minimal_feasible.hpp"
#include "core/rng.hpp"
#include "gen/gadgets.hpp"
#include "gen/random_instances.hpp"
#include "test_util.hpp"

namespace abt::active {
namespace {

using core::SlottedInstance;

TEST(ExactActive, InfeasibleReturnsNullopt) {
  const SlottedInstance inst({{0, 1, 1}, {0, 1, 1}}, 1);
  EXPECT_FALSE(solve_exact(inst).has_value());
}

TEST(ExactActive, SingleRigidJob) {
  const SlottedInstance inst({{1, 4, 3}}, 2);
  const auto result = solve_exact(inst);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->proven_optimal);
  EXPECT_EQ(result->schedule.cost(), 3);
}

TEST(ExactActive, SharesSlotsAcrossJobs) {
  // Two unit jobs with overlapping windows and capacity 2: one slot.
  const SlottedInstance inst({{0, 3, 1}, {1, 4, 1}}, 2);
  const auto result = solve_exact(inst);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->schedule.cost(), 1);
}

TEST(ExactActive, Fig3OptimumIsG) {
  for (int g = 3; g <= 4; ++g) {
    const auto result = solve_exact(gen::fig3_instance(g));
    ASSERT_TRUE(result.has_value());
    ASSERT_TRUE(result->proven_optimal);
    EXPECT_EQ(result->schedule.cost(), g);
  }
}

TEST(ExactActive, NodeLimitReturnsIncumbent) {
  core::Rng rng(5);
  gen::SlottedParams params;
  params.num_jobs = 8;
  params.horizon = 12;
  params.capacity = 2;
  const SlottedInstance inst = gen::random_feasible_slotted(rng, params);
  ExactOptions options;
  options.node_limit = 3;
  const auto result = solve_exact(inst, options);
  ASSERT_TRUE(result.has_value());
  std::string why;
  EXPECT_TRUE(core::check_active_schedule(inst, result->schedule, &why)) << why;
}

/// Property: branch-and-bound matches subset-enumeration brute force.
class ExactVsBrute : public ::testing::TestWithParam<int> {};

TEST_P(ExactVsBrute, MatchesBruteForce) {
  core::Rng rng(static_cast<std::uint64_t>(GetParam()) * 271828ULL);
  for (int trial = 0; trial < 10; ++trial) {
    gen::SlottedParams params;
    params.num_jobs = static_cast<int>(rng.uniform_int(1, 7));
    params.horizon = 8;
    params.capacity = static_cast<int>(rng.uniform_int(1, 3));
    params.max_length = 3;
    params.max_slack = 5;
    const SlottedInstance inst = gen::random_feasible_slotted(rng, params);
    const long brute = testutil::brute_force_active_opt(inst);
    const auto result = solve_exact(inst);
    ASSERT_TRUE(result.has_value());
    ASSERT_TRUE(result->proven_optimal);
    EXPECT_EQ(result->schedule.cost(), brute);
    std::string why;
    EXPECT_TRUE(core::check_active_schedule(inst, result->schedule, &why))
        << why;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactVsBrute, ::testing::Range(1, 11));

/// Property: the unit-job greedy (lazy left-to-right closing) is exact on
/// unit instances — the case solved optimally by Chang-Gabow-Khuller [2].
class UnitGreedyExact : public ::testing::TestWithParam<int> {};

TEST_P(UnitGreedyExact, MatchesBruteForceOnUnitJobs) {
  core::Rng rng(static_cast<std::uint64_t>(GetParam()) * 1009ULL + 17);
  for (int trial = 0; trial < 15; ++trial) {
    gen::SlottedParams params;
    params.num_jobs = static_cast<int>(rng.uniform_int(1, 9));
    params.horizon = 9;
    params.capacity = static_cast<int>(rng.uniform_int(1, 3));
    params.unit_jobs = true;
    params.max_slack = 6;
    const SlottedInstance inst = gen::random_feasible_slotted(rng, params);
    const long brute = testutil::brute_force_active_opt(inst);
    MinimalFeasibleOptions options;
    options.order = CloseOrder::kLeftToRight;
    const auto greedy = solve_minimal_feasible(inst, options);
    ASSERT_TRUE(greedy.has_value());
    EXPECT_EQ(greedy->cost(), brute)
        << "unit-job greedy must be exact (CGK [2])";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnitGreedyExact, ::testing::Range(1, 15));

}  // namespace
}  // namespace abt::active
