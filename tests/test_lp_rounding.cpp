#include "active/lp_rounding.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "active/exact.hpp"
#include "active/feasibility.hpp"
#include "active/lp_model.hpp"
#include "core/rng.hpp"
#include "dense_simplex_oracle.hpp"
#include "engine/runner.hpp"
#include "gen/gadgets.hpp"
#include "gen/random_instances.hpp"
#include "revised_simplex_oracle.hpp"
#include "test_util.hpp"

namespace abt::active {
namespace {

using core::SlottedInstance;

TEST(ActiveLp, LpLowerBoundsIntegralOptimum) {
  core::Rng rng(11);
  for (int trial = 0; trial < 8; ++trial) {
    gen::SlottedParams params;
    params.num_jobs = static_cast<int>(rng.uniform_int(2, 6));
    params.horizon = 8;
    params.capacity = 2;
    const SlottedInstance inst = gen::random_feasible_slotted(rng, params);
    const ActiveTimeLp model(inst);
    const ActiveLpSolution lp = solve_active_lp(model);
    ASSERT_EQ(lp.status, lp::SolveStatus::kOptimal);
    const long opt = testutil::brute_force_active_opt(inst);
    EXPECT_LE(lp.objective, static_cast<double>(opt) + 1e-6)
        << "LP relaxation must lower-bound OPT";
  }
}

TEST(ActiveLp, GapInstanceLpValueIsGPlusOne) {
  for (int g = 2; g <= 5; ++g) {
    const SlottedInstance inst = gen::lp_gap_instance(g);
    const ActiveTimeLp model(inst);
    const ActiveLpSolution lp = solve_active_lp(model);
    ASSERT_EQ(lp.status, lp::SolveStatus::kOptimal);
    // Section 3.5: fractional optimum g(1 + 1/g) = g + 1.
    EXPECT_NEAR(lp.objective, g + 1.0, 1e-5);
  }
}

TEST(ActiveLp, GapInstanceIntegralOptimumIsTwoG) {
  for (int g = 2; g <= 3; ++g) {
    const SlottedInstance inst = gen::lp_gap_instance(g);
    const auto exact = solve_exact(inst);
    ASSERT_TRUE(exact.has_value());
    ASSERT_TRUE(exact->proven_optimal);
    EXPECT_EQ(exact->schedule.cost(), 2 * g);
  }
}

TEST(LpRounding, InfeasibleReturnsNullopt) {
  const SlottedInstance inst({{0, 1, 1}, {0, 1, 1}}, 1);
  EXPECT_FALSE(solve_lp_rounding(inst).has_value());
}

TEST(LpRounding, RigidInstanceOpensExactlyItsWindow) {
  const SlottedInstance inst({{2, 5, 3}}, 4);
  const auto result = solve_lp_rounding(inst);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->schedule.cost(), 3);
  EXPECT_EQ(result->repair_opens, 0);
}

TEST(LpRounding, GapInstanceStaysWithinTwiceLp) {
  for (int g = 2; g <= 4; ++g) {
    const SlottedInstance inst = gen::lp_gap_instance(g);
    const auto result = solve_lp_rounding(inst);
    ASSERT_TRUE(result.has_value());
    EXPECT_LE(static_cast<double>(result->schedule.cost()),
              2.0 * result->lp_objective + 1e-6);
    // Integral OPT is 2g here, so the rounding must hit it exactly (it
    // cannot do better).
    EXPECT_EQ(result->schedule.cost(), 2 * g);
  }
}

TEST(LpRounding, Fig3InstanceWithinTwiceOpt) {
  for (int g = 3; g <= 5; ++g) {
    const SlottedInstance inst = gen::fig3_instance(g);
    const auto result = solve_lp_rounding(inst);
    ASSERT_TRUE(result.has_value());
    EXPECT_LE(result->schedule.cost(), 2 * g)
        << "LP rounding should beat the minimal-feasible worst case";
  }
}

/// Property (Theorem 2): rounding output is feasible, costs <= 2 LP*, and
/// the defensive repair never fires.
class LpRoundingRandom : public ::testing::TestWithParam<int> {};

TEST_P(LpRoundingRandom, FeasibleAndWithinTwiceLpOptimum) {
  core::Rng rng(static_cast<std::uint64_t>(GetParam()) * 9176ULL + 3);
  for (int trial = 0; trial < 10; ++trial) {
    gen::SlottedParams params;
    params.num_jobs = static_cast<int>(rng.uniform_int(2, 9));
    params.horizon = static_cast<core::SlotTime>(rng.uniform_int(6, 14));
    params.capacity = static_cast<int>(rng.uniform_int(1, 4));
    params.max_length = 4;
    params.max_slack = 6;
    const SlottedInstance inst = gen::random_feasible_slotted(rng, params);

    const auto result = solve_lp_rounding(inst);
    ASSERT_TRUE(result.has_value());
    std::string why;
    EXPECT_TRUE(core::check_active_schedule(inst, result->schedule, &why))
        << why;
    EXPECT_LE(static_cast<double>(result->schedule.cost()),
              2.0 * result->lp_objective + 1e-6)
        << "Theorem 2 bound violated";
    EXPECT_EQ(result->repair_opens, 0)
        << "paper's Lemmas 4-6 guarantee prefix feasibility";
    EXPECT_GE(result->schedule.cost(),
              static_cast<core::SlotTime>(std::ceil(result->lp_objective - 1e-6)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpRoundingRandom, ::testing::Range(1, 9));

/// LP rounding never does worse than twice the exact optimum on tiny
/// instances (and is usually much closer).
TEST(LpRounding, WithinTwiceExactOptimum) {
  core::Rng rng(2024);
  for (int trial = 0; trial < 10; ++trial) {
    gen::SlottedParams params;
    params.num_jobs = static_cast<int>(rng.uniform_int(2, 6));
    params.horizon = 8;
    params.capacity = 2;
    params.max_length = 3;
    params.max_slack = 4;
    const SlottedInstance inst = gen::random_feasible_slotted(rng, params);
    const long opt = testutil::brute_force_active_opt(inst);
    const auto result = solve_lp_rounding(inst);
    ASSERT_TRUE(result.has_value());
    EXPECT_LE(result->schedule.cost(), 2 * opt);
    EXPECT_GE(result->schedule.cost(), opt);
  }
}

/// The instances the tests above round: lp-rounding's LP value must be the
/// dense tableau's (tests/oracles/dense_simplex_oracle.hpp).
TEST(LpOracle, RoundingCasesMatchTheDenseOptimum) {
  std::vector<SlottedInstance> cases = {SlottedInstance({{2, 5, 3}}, 4)};
  for (int g = 2; g <= 5; ++g) cases.push_back(gen::lp_gap_instance(g));
  for (int g = 3; g <= 5; ++g) cases.push_back(gen::fig3_instance(g));
  for (int seed = 1; seed < 9; ++seed) {
    core::Rng rng(static_cast<std::uint64_t>(seed) * 9176ULL + 3);
    for (int trial = 0; trial < 10; ++trial) {
      gen::SlottedParams params;
      params.num_jobs = static_cast<int>(rng.uniform_int(2, 9));
      params.horizon = static_cast<core::SlotTime>(rng.uniform_int(6, 14));
      params.capacity = static_cast<int>(rng.uniform_int(1, 4));
      params.max_length = 4;
      params.max_slack = 6;
      cases.push_back(gen::random_feasible_slotted(rng, params));
    }
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto rounded = solve_lp_rounding(cases[i]);
    ASSERT_TRUE(rounded.has_value()) << "case " << i;
    const lp::Solution dense =
        lp::oracle::solve_dense(ActiveTimeLp(cases[i]).problem());
    ASSERT_EQ(dense.status, lp::SolveStatus::kOptimal) << "case " << i;
    EXPECT_NEAR(rounded->lp_objective, dense.objective,
                1e-9 * std::max(1.0, dense.objective))
        << "case " << i;
  }
}

/// LP1 on the revised simplex, warm-started from the feasibility flow, must
/// reach the dense tableau's optimum (tests/oracles/dense_simplex_oracle.hpp)
/// on the campaign's instance families, and the rounding on top of it must
/// keep Theorem 2's guarantees. Sizes lean small: the dense oracle needs
/// about half a second at n = 256.
TEST(LpOracle, CampaignFamiliesMatchTheDenseOptimum) {
  const std::vector<int> sizes = {8,  10, 12, 14,  16,  20,  24, 28, 32,
                                  40, 48, 56, 64,  72,  80,  96, 112, 128,
                                  8,  16, 32, 64, 160, 192, 256};
  for (int i = 0; i < 200; ++i) {
    engine::ScenarioSpec spec;
    spec.name = i % 2 == 0 ? "slotted" : "slotted-unit";
    spec.n = sizes[static_cast<std::size_t>(i) % sizes.size()];
    spec.g = 2 + i % 5;
    spec.seed = static_cast<std::uint64_t>(i) + 1;
    const auto inst = engine::make_scenario(spec);
    ASSERT_TRUE(inst.has_value());
    const SlottedInstance& si = inst->slotted;
    const std::string what = spec.name + " n=" + std::to_string(spec.n) +
                             " g=" + std::to_string(spec.g) +
                             " seed=" + std::to_string(spec.seed);

    const ActiveTimeLp model(si);
    const auto flow = extract_assignment(si, candidate_slots(si));
    ASSERT_TRUE(flow.has_value()) << what;
    const lp::StartBasis start = model.crash_basis(flow->job_slots);
    const lp::Solution warm = lp::SimplexSolver().solve(model.problem(), &start);
    const lp::Solution dense = lp::oracle::solve_dense(model.problem());
    ASSERT_EQ(warm.status, lp::SolveStatus::kOptimal) << what;
    ASSERT_EQ(dense.status, lp::SolveStatus::kOptimal) << what;
    EXPECT_TRUE(warm.warm_start) << what;
    EXPECT_NEAR(warm.objective, dense.objective, 1e-9 * dense.objective)
        << what;
    std::string why;
    EXPECT_TRUE(lp::is_feasible(model.problem(), warm.x, 1e-6, &why))
        << what << ": " << why;

    const auto rounded = solve_lp_rounding(si);
    ASSERT_TRUE(rounded.has_value()) << what;
    EXPECT_NEAR(rounded->lp_objective, dense.objective, 1e-9 * dense.objective)
        << what;
    EXPECT_EQ(rounded->lp_pivots, warm.pivots) << what;
    EXPECT_LE(static_cast<double>(rounded->schedule.cost()),
              2.0 * rounded->lp_objective + 1e-6)
        << what;
    EXPECT_EQ(rounded->repair_opens, 0) << what;
    EXPECT_TRUE(core::check_active_schedule(si, rounded->schedule, &why))
        << what << ": " << why;
  }
}

/// Pins the rounding's cost on the instances of
/// `abt_solve --campaign abtbench/grids/active.grid` (slotted and
/// slotted-unit, n = 128, g = 4, seeds 1-4). LP1 has many optimal vertices and the rounding's cost
/// depends on which one the solver returns, so any change to pivoting,
/// pricing or the crash basis that moves these costs must update this
/// table on purpose. The dense tableau's vertices rounded to 131 129 122
/// 123 and 56 57 51 50.
TEST(LpRounding, CampaignGridCostsArePinned) {
  struct Cell {
    const char* scenario;
    std::uint64_t seed;
    long cost;
  };
  const Cell cells[] = {
      {"slotted", 1, 128},      {"slotted", 2, 128},
      {"slotted", 3, 122},      {"slotted", 4, 121},
      {"slotted-unit", 1, 56},  {"slotted-unit", 2, 57},
      {"slotted-unit", 3, 52},  {"slotted-unit", 4, 50},
  };
  for (const Cell& cell : cells) {
    engine::ScenarioSpec spec;
    spec.name = cell.scenario;
    spec.n = 128;
    spec.g = 4;
    spec.seed = cell.seed;
    const auto inst = engine::make_scenario(spec);
    ASSERT_TRUE(inst.has_value());
    const auto rounded = solve_lp_rounding(inst->slotted);
    ASSERT_TRUE(rounded.has_value()) << cell.scenario << " seed " << cell.seed;
    EXPECT_EQ(rounded->schedule.cost(), cell.cost)
        << cell.scenario << " seed " << cell.seed;
    EXPECT_EQ(rounded->repair_opens, 0)
        << cell.scenario << " seed " << cell.seed;
  }
}

/// LP1 as the library solves it against the frozen copy of the simplex
/// from before its buffers were pooled and its rows flattened: the same
/// status, pivot count, objective and every variable, bit for bit, both
/// from the crash basis lp-rounding starts from and from the cold start.
TEST(LpEquivalence, PivotsAndSolutionBitIdentical) {
  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
  };
  int solved = 0;
  for (const char* family : {"slotted", "slotted-unit"}) {
    for (int k = 0; k < 25; ++k) {
      engine::ScenarioSpec spec;
      spec.name = family;
      spec.n = (k % 5 == 4) ? 128 : 8 << (k % 5);
      spec.g = 1 + k % 4;
      spec.seed = static_cast<std::uint64_t>(k) + 1;
      const auto problem = engine::make_scenario(spec);
      ASSERT_TRUE(problem.has_value());
      const core::SlottedInstance& inst = problem->slotted;
      const active::ActiveTimeLp model(inst);
      const auto all_open =
          active::extract_assignment(inst, active::candidate_slots(inst));
      ASSERT_TRUE(all_open.has_value()) << family << " " << k;
      const lp::StartBasis crash = model.crash_basis(all_open->job_slots);
      for (const lp::StartBasis* start :
           {static_cast<const lp::StartBasis*>(&crash),
            static_cast<const lp::StartBasis*>(nullptr)}) {
        const lp::Solution now =
            lp::SimplexSolver().solve(model.problem(), start);
        const lp::Solution frozen =
            lp::oracle::revised::solve_revised(model.problem(), {}, start);
        const std::string what = std::string(family) + " k " +
                                 std::to_string(k) +
                                 (start != nullptr ? " crash" : " cold");
        ASSERT_EQ(now.status, frozen.status) << what;
        EXPECT_EQ(now.pivots, frozen.pivots) << what;
        EXPECT_EQ(now.warm_start, frozen.warm_start) << what;
        EXPECT_TRUE(same_bits(now.objective, frozen.objective))
            << what << ": " << now.objective << " vs " << frozen.objective;
        ASSERT_EQ(now.x.size(), frozen.x.size()) << what;
        for (std::size_t v = 0; v < now.x.size(); ++v) {
          ASSERT_TRUE(same_bits(now.x[v], frozen.x[v]))
              << what << " variable " << v;
        }
        ++solved;
      }
    }
  }
  EXPECT_EQ(solved, 100);
}

}  // namespace
}  // namespace abt::active
