// random_feasible_slotted on one warm G_feas (active::FeasibleJobSet)
// against the frozen rebuild-per-candidate generator it replaced
// (tests/oracles/feasible_slotted_oracle.hpp): the same jobs for every seed
// and shape, including shapes where most candidates are refused.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "active/feasibility.hpp"
#include "core/rng.hpp"
#include "feasible_slotted_oracle.hpp"
#include "gen/random_instances.hpp"

namespace abt::gen {
namespace {

struct FeasibleShape {
  const char* name;
  SlottedParams params;
  bool refusal_heavy;
};

SlottedParams shape(int n, core::SlotTime horizon, int g, bool unit = false) {
  SlottedParams params;
  params.num_jobs = n;
  params.horizon = horizon;
  params.capacity = g;
  params.unit_jobs = unit;
  return params;
}

/// Replays the generator's draws on a FeasibleJobSet and counts the
/// candidates it refused; also returns the kept jobs.
int refused_candidates(std::uint64_t seed, const SlottedParams& params,
                       std::vector<core::SlottedJob>* kept_jobs) {
  core::Rng rng(seed);
  active::FeasibleJobSet kept(params.num_jobs, params.horizon,
                              params.capacity);
  int attempts = 0;
  int refused = 0;
  while (static_cast<int>(kept_jobs->size()) < params.num_jobs &&
         attempts < 60 * params.num_jobs + 200) {
    core::SlottedJob job = oracle::random_slotted_job(rng, params);
    if (++attempts > 40 * params.num_jobs) job = {0, params.horizon, 1};
    if (kept.try_add(job)) {
      kept_jobs->push_back(job);
    } else {
      ++refused;
    }
  }
  return refused;
}

const FeasibleShape kShapes[] = {
    {"campaign", shape(128, 256, 4), false},
    {"campaign_unit", shape(128, 256, 4, true), false},
    {"defaults", SlottedParams{}, false},
    {"n256_h512_g6", shape(256, 512, 6), false},
    {"n64_h20_g2", shape(64, 20, 2), true},
    {"n200_h30_g3", shape(200, 30, 3), true},
    {"n30_h12_g1", shape(30, 12, 1), true},
    {"n100_h12_g4_unit", shape(100, 12, 4, true), true},
};

class FeasibleSlotted : public ::testing::TestWithParam<FeasibleShape> {};

TEST_P(FeasibleSlotted, MatchesFrozenGenerator) {
  const FeasibleShape& s = GetParam();
  constexpr std::uint64_t kSeeds = 40;
  int refused = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    core::Rng fast_rng(seed);
    core::Rng oracle_rng(seed);
    const auto fast = random_feasible_slotted(fast_rng, s.params);
    const auto frozen = oracle::random_feasible_slotted(oracle_rng, s.params);
    ASSERT_EQ(fast.jobs(), frozen.jobs()) << "seed " << seed;
    EXPECT_EQ(fast.capacity(), frozen.capacity());
    // Both consumed the same draws.
    EXPECT_EQ(fast_rng.uniform_int(0, 1 << 30),
              oracle_rng.uniform_int(0, 1 << 30))
        << "seed " << seed;
    if (s.refusal_heavy) {
      std::vector<core::SlottedJob> replayed;
      refused += refused_candidates(seed, s.params, &replayed);
      EXPECT_EQ(replayed, frozen.jobs()) << "seed " << seed;
    }
  }
  if (s.refusal_heavy) {
    EXPECT_GT(refused, 0) << "the rollback path never ran";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FeasibleSlotted, ::testing::ValuesIn(kShapes),
    [](const ::testing::TestParamInfo<FeasibleShape>& info) {
      return std::string(info.param.name);
    });

TEST(FeasibleJobSet, RefusalLeavesTheKeptSetUsable) {
  // g = 1 over two slots: a rigid job fills slot 1, a second rigid job on
  // the same slot is refused, and a job that reroutes the first one (which
  // may still move) must then fit.
  active::FeasibleJobSet kept(4, 2, 1);
  EXPECT_TRUE(kept.try_add({0, 2, 1}));   // may use slot 1 or 2
  EXPECT_TRUE(kept.try_add({0, 1, 1}));   // forces the first into slot 2
  EXPECT_FALSE(kept.try_add({0, 2, 1}));  // both slots full
  EXPECT_FALSE(kept.try_add({1, 2, 2}));  // window too short
  EXPECT_FALSE(kept.try_add({0, 0, 1}));  // empty window
  active::FeasibleJobSet roomy(4, 3, 1);
  EXPECT_TRUE(roomy.try_add({0, 3, 2}));
  EXPECT_FALSE(roomy.try_add({0, 2, 2}));  // would need 4 units in 3 slots
  EXPECT_TRUE(roomy.try_add({2, 3, 1}));   // the refused job left no trace
  EXPECT_FALSE(roomy.try_add({0, 3, 1}));
}

}  // namespace
}  // namespace abt::gen
