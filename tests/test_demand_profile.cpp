#include "busy/demand_profile.hpp"

#include <gtest/gtest.h>

#include "busy/weighted.hpp"
#include "core/busy_schedule.hpp"
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

TEST(DemandProfile, SingleJob) {
  const DemandProfile prof(intervals({{1, 3}}, 2));
  ASSERT_EQ(prof.segments().size(), 1u);
  EXPECT_EQ(prof.segments()[0].raw_demand, 1);
  EXPECT_EQ(prof.segments()[0].demand, 1);
  EXPECT_DOUBLE_EQ(prof.cost(), 2.0);
}

TEST(DemandProfile, StackedJobsRoundUpByCapacity) {
  // Three identical jobs, g = 2: demand ceil(3/2) = 2.
  const DemandProfile prof(intervals({{0, 1}, {0, 1}, {0, 1}}, 2));
  ASSERT_EQ(prof.segments().size(), 1u);
  EXPECT_EQ(prof.segments()[0].raw_demand, 3);
  EXPECT_EQ(prof.segments()[0].demand, 2);
  EXPECT_DOUBLE_EQ(prof.cost(), 2.0);
}

TEST(DemandProfile, GapsProduceNoSegments) {
  const DemandProfile prof(intervals({{0, 1}, {5, 7}}, 1));
  ASSERT_EQ(prof.segments().size(), 2u);
  EXPECT_DOUBLE_EQ(prof.cost(), 3.0);
}

TEST(DemandProfile, StaircaseDemand) {
  // [0,3) one job, [1,3) second, [2,3) third; g=1: cost 1+2+3 = 6.
  const DemandProfile prof(intervals({{0, 3}, {1, 3}, {2, 3}}, 1));
  ASSERT_EQ(prof.segments().size(), 3u);
  EXPECT_EQ(prof.segments()[0].demand, 1);
  EXPECT_EQ(prof.segments()[1].demand, 2);
  EXPECT_EQ(prof.segments()[2].demand, 3);
  EXPECT_DOUBLE_EQ(prof.cost(), 6.0);
}

TEST(DemandProfile, MaxDemandAndRawDemand) {
  const DemandProfile prof(intervals({{0, 2}, {0, 2}, {0, 2}, {1, 2}}, 2));
  EXPECT_EQ(prof.max_raw_demand(), 4);
  EXPECT_EQ(prof.max_demand(), 2);
}

TEST(DemandProfile, PaddingMakesEverySegmentMultipleOfG) {
  core::Rng rng(3);
  gen::ContinuousParams params;
  params.num_jobs = 12;
  params.capacity = 3;
  const ContinuousInstance inst = gen::random_continuous(rng, params);
  int dummies = 0;
  const ContinuousInstance padded = pad_to_capacity_multiple(inst, &dummies);
  EXPECT_GE(dummies, 0);
  const DemandProfile before(inst);
  const DemandProfile after(padded);
  EXPECT_NEAR(before.cost(), after.cost(), 1e-9)
      << "padding must not change the demand profile cost (Appendix A.1)";
  for (const ProfileSegment& seg : after.segments()) {
    EXPECT_EQ(seg.raw_demand % padded.capacity(), 0);
  }
  // Original jobs keep their ids.
  for (int j = 0; j < inst.size(); ++j) {
    EXPECT_EQ(inst.job(j), padded.job(j));
  }
}

/// Property (Observation 4): the profile cost lower-bounds the exact
/// optimum on small interval instances.
class ProfileLowerBound : public ::testing::TestWithParam<int> {};

TEST_P(ProfileLowerBound, ProfileCostBelowExactOptimum) {
  core::Rng rng(static_cast<std::uint64_t>(GetParam()) * 555ULL + 1);
  for (int trial = 0; trial < 8; ++trial) {
    gen::ContinuousParams params;
    params.num_jobs = static_cast<int>(rng.uniform_int(2, 8));
    params.capacity = static_cast<int>(rng.uniform_int(1, 3));
    params.horizon = 10;
    const ContinuousInstance inst = gen::random_continuous(rng, params);
    const core::BusySchedule exact =
        solve_exact_busy(WeightedInstance::with_unit_widths(inst)).schedule;
    const double opt = core::busy_cost(inst, exact);
    EXPECT_LE(DemandProfile(inst).cost(), opt + 1e-6);
    EXPECT_LE(inst.mass_lower_bound(), opt + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProfileLowerBound, ::testing::Range(1, 7));

}  // namespace
}  // namespace abt::busy
