#include "busy/special_cases.hpp"

#include <gtest/gtest.h>

#include "busy/online.hpp"
#include "busy/weighted.hpp"
#include "core/rng.hpp"
#include "gen/random_instances.hpp"

namespace abt::busy {
namespace {

using core::ContinuousInstance;

ContinuousInstance intervals(std::vector<std::pair<double, double>> spans,
                             int g) {
  std::vector<core::ContinuousJob> jobs;
  for (auto [lo, hi] : spans) jobs.push_back({lo, hi, hi - lo});
  return ContinuousInstance(std::move(jobs), g);
}

TEST(InstanceClasses, ProperDetection) {
  EXPECT_TRUE(is_proper_instance(intervals({{0, 2}, {1, 3}, {2, 4}}, 1)));
  EXPECT_FALSE(is_proper_instance(intervals({{0, 4}, {1, 2}}, 1)));
  EXPECT_TRUE(is_proper_instance(intervals({{0, 2}, {0, 2}}, 1)))
      << "identical intervals are not strict containment";
  EXPECT_TRUE(is_proper_instance(intervals({}, 1)));
}

TEST(InstanceClasses, CliqueDetection) {
  EXPECT_TRUE(is_clique_instance(intervals({{0, 3}, {1, 4}, {2, 5}}, 1)));
  EXPECT_FALSE(is_clique_instance(intervals({{0, 1}, {2, 3}}, 1)));
  EXPECT_TRUE(is_clique_instance(intervals({}, 1)));
}

TEST(ProperClique, RejectsNonCliqueOrNonProper) {
  EXPECT_FALSE(solve_proper_clique(intervals({{0, 1}, {5, 6}}, 2)).has_value());
  EXPECT_FALSE(solve_proper_clique(intervals({{0, 9}, {3, 4}}, 2)).has_value());
}

TEST(ProperClique, SingleBundleWhenCapacityAllows) {
  const auto inst = intervals({{0, 3}, {1, 4}, {2, 5}}, 3);
  const auto sched = solve_proper_clique(inst);
  ASSERT_TRUE(sched.has_value());
  EXPECT_EQ(sched->machine_count(), 1);
  EXPECT_NEAR(core::busy_cost(inst, *sched), 5.0, 1e-9);
}

TEST(ProperClique, SplitsWhenOverCapacity) {
  // Four staircase jobs around point 2, g = 2: consecutive pairs.
  const auto inst = intervals({{0, 3}, {1, 4}, {1.5, 4.5}, {2, 5}}, 2);
  const auto sched = solve_proper_clique(inst);
  ASSERT_TRUE(sched.has_value());
  std::string why;
  EXPECT_TRUE(core::check_busy_schedule(inst, *sched, &why)) << why;
  const core::BusySchedule exact =
      solve_exact_busy(WeightedInstance::with_unit_widths(inst)).schedule;
  EXPECT_NEAR(core::busy_cost(inst, *sched), core::busy_cost(inst, exact),
              1e-9);
}

/// Property (footnote 1 / Mertzios et al. [12]): the DP is exact on proper
/// cliques, and FIRSTFIT-by-release stays within 2x on them.
class ProperCliqueRandom : public ::testing::TestWithParam<int> {};

TEST_P(ProperCliqueRandom, DpMatchesExactAndReleaseFitWithinTwo) {
  core::Rng rng(static_cast<std::uint64_t>(GetParam()) * 131071ULL);
  for (int trial = 0; trial < 10; ++trial) {
    gen::ContinuousParams params;
    params.num_jobs = static_cast<int>(rng.uniform_int(1, 9));
    params.capacity = static_cast<int>(rng.uniform_int(1, 3));
    params.horizon = 12;
    params.max_length = 4;
    const ContinuousInstance inst = gen::random_proper_clique(rng, params);
    ASSERT_TRUE(is_proper_instance(inst));
    ASSERT_TRUE(is_clique_instance(inst));

    const auto dp = solve_proper_clique(inst);
    ASSERT_TRUE(dp.has_value());
    std::string why;
    EXPECT_TRUE(core::check_busy_schedule(inst, *dp, &why)) << why;

    const core::BusySchedule exact =
        solve_exact_busy(WeightedInstance::with_unit_widths(inst)).schedule;
    const double opt = core::busy_cost(inst, exact);
    EXPECT_NEAR(core::busy_cost(inst, *dp), opt, 1e-9)
        << "proper-clique DP must be exact";

    const double release_fit = core::busy_cost(
        inst, schedule_online(inst, OnlinePolicy::kFirstFit));
    EXPECT_LE(release_fit, 2 * opt + 1e-9)
        << "FIRSTFIT by release is 2-approx on proper instances";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProperCliqueRandom, ::testing::Range(1, 9));

}  // namespace
}  // namespace abt::busy
