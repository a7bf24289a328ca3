#include "active/minimal_feasible.hpp"

#include <gtest/gtest.h>

#include "active/exact.hpp"
#include "active/feasibility.hpp"
#include "active/multi_window.hpp"
#include "core/rng.hpp"
#include "engine/runner.hpp"
#include "gen/extended_instances.hpp"
#include "gen/gadgets.hpp"
#include "gen/random_instances.hpp"
#include "minimal_feasible_oracle.hpp"
#include "test_util.hpp"

namespace abt::active {
namespace {

using core::SlottedInstance;

TEST(MinimalFeasible, InfeasibleInstanceReturnsNullopt) {
  const SlottedInstance inst({{0, 1, 1}, {0, 1, 1}}, 1);
  EXPECT_FALSE(solve_minimal_feasible(inst).has_value());
}

TEST(MinimalFeasible, TrivialInstanceUsesExactlyNeededSlots) {
  const SlottedInstance inst({{0, 5, 2}}, 1);
  const auto sched = solve_minimal_feasible(inst);
  ASSERT_TRUE(sched.has_value());
  EXPECT_EQ(sched->cost(), 2);
}

TEST(MinimalFeasible, ResultIsMinimal) {
  core::Rng rng(42);
  gen::SlottedParams params;
  params.num_jobs = 8;
  params.horizon = 12;
  params.capacity = 2;
  const SlottedInstance inst = gen::random_feasible_slotted(rng, params);
  const auto sched = solve_minimal_feasible(inst);
  ASSERT_TRUE(sched.has_value());
  // Closing any single remaining slot must break feasibility
  // (Definition 4).
  for (std::size_t drop = 0; drop < sched->active_slots.size(); ++drop) {
    std::vector<core::SlotTime> fewer;
    for (std::size_t i = 0; i < sched->active_slots.size(); ++i) {
      if (i != drop) fewer.push_back(sched->active_slots[i]);
    }
    EXPECT_FALSE(is_feasible_with_slots(inst, fewer))
        << "slot " << sched->active_slots[drop] << " was removable";
  }
}

TEST(MinimalFeasible, Fig3InstanceHasOptimalCostG) {
  for (int g = 3; g <= 5; ++g) {
    const SlottedInstance inst = gen::fig3_instance(g);
    EXPECT_TRUE(is_feasible_with_slots(inst, gen::fig3_optimal_slots(g)));
    // g slots are also necessary: mass = 2g + (g-2)(g-2) + 2(g-2) = g*g - g + ...
    // use the library's mass bound instead of re-deriving.
    EXPECT_GE(static_cast<long>(gen::fig3_optimal_slots(g).size()),
              inst.mass_lower_bound());
  }
}

TEST(MinimalFeasible, Fig3AdversarialSetIsFeasibleAndExpensive) {
  for (int g = 3; g <= 6; ++g) {
    const SlottedInstance inst = gen::fig3_instance(g);
    const auto bad = gen::fig3_adversarial_slots(g);
    EXPECT_TRUE(is_feasible_with_slots(inst, bad));
    EXPECT_EQ(static_cast<long>(bad.size()), 3L * g - 2);
  }
}

TEST(MinimalFeasible, AllOrdersStayWithinThreeTimesOptOnFig3) {
  const int g = 4;
  const SlottedInstance inst = gen::fig3_instance(g);
  for (const CloseOrder order :
       {CloseOrder::kLeftToRight, CloseOrder::kRightToLeft,
        CloseOrder::kSparsestFirst, CloseOrder::kDensestFirst,
        CloseOrder::kRandom}) {
    MinimalFeasibleOptions options;
    options.order = order;
    const auto sched = solve_minimal_feasible(inst, options);
    ASSERT_TRUE(sched.has_value());
    EXPECT_LE(sched->cost(), 3 * g) << "Theorem 1 bound violated";
    EXPECT_GE(sched->cost(), g);
  }
}

/// Property (Theorem 1): every minimal feasible solution costs <= 3 OPT.
class MinimalVsExact : public ::testing::TestWithParam<int> {};

TEST_P(MinimalVsExact, WithinThreeTimesBruteForceOptimum) {
  core::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337ULL);
  for (int trial = 0; trial < 12; ++trial) {
    gen::SlottedParams params;
    params.num_jobs = static_cast<int>(rng.uniform_int(2, 7));
    params.horizon = 9;
    params.capacity = static_cast<int>(rng.uniform_int(1, 3));
    params.max_length = 3;
    params.max_slack = 5;
    const SlottedInstance inst = gen::random_feasible_slotted(rng, params);
    const long opt = testutil::brute_force_active_opt(inst);
    ASSERT_GE(opt, 0);

    for (const CloseOrder order :
         {CloseOrder::kLeftToRight, CloseOrder::kRightToLeft,
          CloseOrder::kDensestFirst}) {
      MinimalFeasibleOptions options;
      options.order = order;
      const auto sched = solve_minimal_feasible(inst, options);
      ASSERT_TRUE(sched.has_value());
      EXPECT_LE(sched->cost(), 3 * opt) << "Theorem 1 violated";
      EXPECT_GE(sched->cost(), opt);
      std::string why;
      EXPECT_TRUE(core::check_active_schedule(inst, *sched, &why)) << why;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinimalVsExact, ::testing::Range(1, 11));

// --- Warm closing pass vs the frozen rebuild-per-trial oracle ---------
// The closing verdicts are exact, so the kept slot set must be the same
// and the final fresh extraction must route the same assignment.

struct OrderCase {
  CloseOrder order;
  std::uint64_t seed;
};

/// Every close order; kRandom under `random_seeds` seeds.
std::vector<OrderCase> all_order_cases(int random_seeds) {
  std::vector<OrderCase> cases = {{CloseOrder::kLeftToRight, 1},
                                  {CloseOrder::kRightToLeft, 1},
                                  {CloseOrder::kSparsestFirst, 1},
                                  {CloseOrder::kDensestFirst, 1}};
  for (int seed = 1; seed <= random_seeds; ++seed) {
    cases.push_back({CloseOrder::kRandom, static_cast<std::uint64_t>(seed)});
  }
  return cases;
}

void expect_matches_oracle(const SlottedInstance& inst,
                           const std::string& label, int random_seeds = 3) {
  for (const OrderCase& c : all_order_cases(random_seeds)) {
    MinimalFeasibleOptions options;
    options.order = c.order;
    options.seed = c.seed;
    const auto expected = oracle::solve_minimal_feasible(inst, options);
    const auto got = solve_minimal_feasible(inst, options);
    const std::string where = label + " order " +
                              std::to_string(static_cast<int>(c.order)) +
                              " seed " + std::to_string(c.seed);
    ASSERT_EQ(got.has_value(), expected.has_value()) << where;
    if (!got.has_value()) continue;
    EXPECT_EQ(got->active_slots, expected->active_slots) << where;
    EXPECT_EQ(got->job_slots, expected->job_slots) << where;
    std::string why;
    EXPECT_TRUE(core::check_active_schedule(inst, *got, &why))
        << where << ": " << why;
  }
}

TEST(MinimalFeasibleOracle, RandomScenariosMatchEveryCloseOrder) {
  for (const char* kind : {"slotted", "slotted-unit"}) {
    for (int n : {1, 2, 5, 8, 16, 32, 64, 128, 256}) {
      for (int g : {1, 2, 3, 4, 8}) {
        engine::ScenarioSpec spec;
        spec.name = kind;
        spec.n = n;
        spec.g = g;
        spec.seed = static_cast<std::uint64_t>(n * 10 + g);
        std::string error;
        const auto inst = engine::make_scenario(spec, &error);
        ASSERT_TRUE(inst.has_value()) << error;
        // The oracle runs a full flow per candidate slot, so the largest
        // sizes draw fewer random orders to keep the suite quick.
        expect_matches_oracle(inst->slotted,
                              std::string(kind) + " n=" + std::to_string(n) +
                                  " g=" + std::to_string(g),
                              n >= 128 ? 1 : 3);
      }
    }
  }
}

TEST(MinimalFeasibleOracle, Fig3MatchesEveryCloseOrder) {
  for (int g = 3; g <= 6; ++g) {
    expect_matches_oracle(gen::fig3_instance(g), "fig3 g=" + std::to_string(g));
  }
}

TEST(MinimalFeasibleOracle, EverySlotMustStayOpen) {
  // Ten tight unit jobs per slot at g = 2, one slot each: no slot closes,
  // so every trial takes the re-augment path.
  std::vector<core::SlottedJob> jobs;
  for (core::SlotTime t = 0; t < 10; ++t) {
    jobs.push_back({t, t + 1, 1});
    jobs.push_back({t, t + 1, 1});
  }
  const SlottedInstance inst(jobs, 2);
  expect_matches_oracle(inst, "all-open");
  const auto sched = solve_minimal_feasible(inst);
  ASSERT_TRUE(sched.has_value());
  EXPECT_EQ(sched->cost(), 10);
}

TEST(MinimalFeasibleOracle, InfeasibleInstanceIsNulloptForEveryOrder) {
  const SlottedInstance inst({{0, 2, 2}, {0, 2, 2}, {0, 2, 1}}, 2);
  expect_matches_oracle(inst, "infeasible");
  bool cancelled = true;
  EXPECT_FALSE(solve_minimal_feasible(inst, {}, &cancelled).has_value());
  EXPECT_FALSE(cancelled);
}

void expect_mw_matches_oracle(const MultiWindowInstance& inst,
                              const std::string& label) {
  const auto expected = oracle::mw_solve_minimal_feasible(inst);
  const auto got = solve_minimal_feasible(inst);
  ASSERT_EQ(got.has_value(), expected.has_value()) << label;
  if (!got.has_value()) return;
  EXPECT_EQ(got->active_slots, expected->active_slots) << label;
  EXPECT_EQ(got->job_slots, expected->job_slots) << label;
  std::string why;
  EXPECT_TRUE(core::check_active_schedule(inst, *got, &why)) << label << ": " << why;
}

TEST(MinimalFeasibleOracle, MultiWindowMatchesLeftToRightClosing) {
  for (int n : {1, 2, 5, 8, 16, 32, 64, 128, 256}) {
    for (int g : {1, 2, 3, 4, 8}) {
      core::Rng rng(static_cast<std::uint64_t>(n * 100 + g));
      gen::MultiWindowParams params;
      params.num_jobs = n;
      params.capacity = g;
      const MultiWindowInstance inst = gen::random_multi_window(rng, params);
      expect_mw_matches_oracle(inst, "multi-window n=" + std::to_string(n) +
                                         " g=" + std::to_string(g));
    }
  }
}

TEST(MinimalFeasibleOracle, MultiWindowEdgeCases) {
  // Split windows, a job that needs every slot of both pieces, and an
  // over-committed instance.
  expect_mw_matches_oracle(MultiWindowInstance({{{{0, 2}, {5, 7}}, 3}}, 1),
                           "split");
  expect_mw_matches_oracle(
      MultiWindowInstance({{{{0, 2}, {5, 7}}, 4}, {{{1, 3}}, 1}}, 2),
      "tight");
  const MultiWindowInstance infeasible({{{{0, 2}}, 2}, {{{0, 2}}, 2}}, 1);
  expect_mw_matches_oracle(infeasible, "infeasible");
  EXPECT_FALSE(solve_minimal_feasible(infeasible).has_value());
}

}  // namespace
}  // namespace abt::active
