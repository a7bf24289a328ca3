// Direct unit coverage of the LP1 model builder and the right-shift
// preprocessing (Lemma 3) — the internals behind the 2-approximation.
#include "active/lp_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "active/feasibility.hpp"
#include "active/lp_rounding.hpp"
#include "core/rng.hpp"
#include "dense_simplex_oracle.hpp"
#include "gen/gadgets.hpp"
#include "gen/random_instances.hpp"

namespace abt::active {
namespace {

using core::SlottedInstance;

TEST(LpModel, VariableLayout) {
  const SlottedInstance inst({{0, 3, 2}, {1, 4, 1}}, 2);
  const ActiveTimeLp model(inst);
  // y per candidate slot (1..4), x per (job, window slot).
  EXPECT_EQ(static_cast<int>(model.slots().size()), 4);
  EXPECT_EQ(model.problem().num_vars, 4 + 3 + 3);
  EXPECT_GE(model.y_index(1), 0);
  EXPECT_GE(model.x_index(0, 3), 0);
  EXPECT_EQ(model.x_index(0, 4), -1) << "slot 4 outside job 0's window";
  EXPECT_EQ(model.x_index(1, 1), -1) << "slot 1 before job 1's release";
}

TEST(LpModel, SlotBoundsAreVariableBoundsNotRows) {
  const SlottedInstance inst({{0, 3, 2}, {1, 4, 1}}, 2);
  const ActiveTimeLp model(inst);
  // One link row per x, one capacity row per slot, one demand row per job.
  EXPECT_EQ(model.problem().num_rows(), 6 + 4 + 2);
  for (const core::SlotTime t : model.slots()) {
    EXPECT_EQ(model.problem().upper[static_cast<std::size_t>(model.y_index(t))],
              1.0);
  }
  EXPECT_EQ(model.problem().upper[static_cast<std::size_t>(model.x_index(0, 2))],
            lp::kInfinity);
}

TEST(LpModel, ObjectiveCountsOnlyYVariables) {
  const SlottedInstance inst({{0, 3, 2}}, 1);
  const ActiveTimeLp model(inst);
  double total = 0;
  for (double c : model.problem().objective) total += c;
  EXPECT_DOUBLE_EQ(total, 3.0) << "three candidate slots, cost 1 each";
}

TEST(LpModel, RigidJobForcesFullWindow) {
  const SlottedInstance inst({{1, 4, 3}}, 1);
  const ActiveLpSolution lp = solve_active_lp(ActiveTimeLp(inst));
  ASSERT_EQ(lp.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(lp.objective, 3.0, 1e-7);
  for (double y : lp.y) EXPECT_NEAR(y, 1.0, 1e-7);
}

TEST(LpModel, CapacitySharingShowsInObjective) {
  // Two unit jobs, same slot pair, g = 2: LP opens one slot fully.
  const SlottedInstance inst({{0, 2, 1}, {0, 2, 1}}, 2);
  const ActiveLpSolution lp = solve_active_lp(ActiveTimeLp(inst));
  EXPECT_NEAR(lp.objective, 1.0, 1e-7);
}

TEST(LpModel, FractionalOptimumOnGapFamily) {
  // The g=2 gap instance: 3 unit jobs per slot pair, y = (1, 1/2) per pair.
  const SlottedInstance inst = gen::lp_gap_instance(2);
  const ActiveLpSolution lp = solve_active_lp(ActiveTimeLp(inst));
  ASSERT_EQ(lp.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(lp.objective, 3.0, 1e-7);
}

TEST(RightShift, SegmentMassesSumToObjective) {
  core::Rng rng(9);
  for (int trial = 0; trial < 10; ++trial) {
    gen::SlottedParams params;
    params.num_jobs = static_cast<int>(rng.uniform_int(2, 8));
    params.horizon = 10;
    params.capacity = 2;
    const SlottedInstance inst = gen::random_feasible_slotted(rng, params);
    const ActiveTimeLp model(inst);
    const ActiveLpSolution lp = solve_active_lp(model);
    ASSERT_EQ(lp.status, lp::SolveStatus::kOptimal);
    const RightShiftedLp rs = right_shift(inst, model.slots(), lp.y);
    double total = 0;
    for (double m : rs.segment_mass) total += m;
    EXPECT_NEAR(total, lp.objective, 1e-6)
        << "right-shifting must conserve the LP mass";
    EXPECT_NEAR(rs.objective, lp.objective, 1e-6);
    // Deadlines ascending, one mass per deadline.
    EXPECT_EQ(rs.deadlines.size(), rs.segment_mass.size());
    for (std::size_t i = 1; i < rs.deadlines.size(); ++i) {
      EXPECT_LT(rs.deadlines[i - 1], rs.deadlines[i]);
    }
  }
}

TEST(RightShift, MassFitsSegmentCapacity) {
  core::Rng rng(10);
  for (int trial = 0; trial < 10; ++trial) {
    gen::SlottedParams params;
    params.num_jobs = 6;
    params.horizon = 9;
    params.capacity = 3;
    const SlottedInstance inst = gen::random_feasible_slotted(rng, params);
    const ActiveTimeLp model(inst);
    const ActiveLpSolution lp = solve_active_lp(model);
    const RightShiftedLp rs = right_shift(inst, model.slots(), lp.y);
    core::SlotTime prev = 0;
    for (std::size_t i = 0; i < rs.deadlines.size(); ++i) {
      EXPECT_LE(rs.segment_mass[i],
                static_cast<double>(rs.deadlines[i] - prev) + 1e-6)
          << "segment mass cannot exceed the number of slots in it";
      prev = rs.deadlines[i];
    }
  }
}

// ---------------------------------------------------------------------------
// The crash basis from a feasibility flow, and agreement with the dense
// tableau oracle (tests/oracles/dense_simplex_oracle.hpp) on the cases above.

TEST(LpModel, CrashBasisFromTheFlowSkipsPhaseOne) {
  core::Rng rng(12);
  for (int trial = 0; trial < 20; ++trial) {
    gen::SlottedParams params;
    params.num_jobs = static_cast<int>(rng.uniform_int(2, 12));
    params.horizon = 14;
    params.capacity = static_cast<int>(rng.uniform_int(1, 4));
    const SlottedInstance inst = gen::random_feasible_slotted(rng, params);
    const ActiveTimeLp model(inst);
    const auto flow = extract_assignment(inst, candidate_slots(inst));
    ASSERT_TRUE(flow.has_value());
    const lp::StartBasis start = model.crash_basis(flow->job_slots);
    const lp::Solution warm = lp::SimplexSolver().solve(model.problem(), &start);
    const lp::Solution cold = lp::SimplexSolver().solve(model.problem());
    ASSERT_EQ(warm.status, lp::SolveStatus::kOptimal);
    ASSERT_EQ(cold.status, lp::SolveStatus::kOptimal);
    EXPECT_TRUE(warm.warm_start) << "the flow's basis is triangular and feasible";
    EXPECT_FALSE(cold.warm_start);
    EXPECT_NEAR(warm.objective, cold.objective, 1e-9 * std::max(1.0, cold.objective));
    std::string why;
    EXPECT_TRUE(lp::is_feasible(model.problem(), warm.x, 1e-6, &why)) << why;
  }
}

TEST(LpModel, CasesMatchTheDenseOracle) {
  std::vector<SlottedInstance> cases = {
      SlottedInstance({{0, 3, 2}, {1, 4, 1}}, 2),
      SlottedInstance({{0, 3, 2}}, 1),
      SlottedInstance({{1, 4, 3}}, 1),
      SlottedInstance({{0, 2, 1}, {0, 2, 1}}, 2),
      gen::lp_gap_instance(2),
  };
  core::Rng rng(9);
  for (int trial = 0; trial < 10; ++trial) {
    gen::SlottedParams params;
    params.num_jobs = static_cast<int>(rng.uniform_int(2, 8));
    params.horizon = 10;
    params.capacity = 2;
    cases.push_back(gen::random_feasible_slotted(rng, params));
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const ActiveTimeLp model(cases[i]);
    const ActiveLpSolution lp = solve_active_lp(model);
    const lp::Solution dense = lp::oracle::solve_dense(model.problem());
    ASSERT_EQ(lp.status, dense.status) << "case " << i;
    EXPECT_NEAR(lp.objective, dense.objective,
                1e-9 * std::max(1.0, dense.objective))
        << "case " << i;
  }
}

// Regression (PR 8): model CONSTRUCTION used to be uninterruptible — on a
// large instance a cancelled context still paid the full O(n * horizon)
// row build before the simplex's own polls could notice. The build now
// polls should_stop between row batches and abandons promptly.
TEST(LpModel, BuildPollsCancellationAndAbandonsPromptly) {
  core::Rng rng(11);
  gen::SlottedParams params;
  params.num_jobs = 40;
  params.horizon = 120;
  params.capacity = 3;
  const SlottedInstance inst = gen::random_feasible_slotted(rng, params);

  // A pre-cancelled context never builds a single constraint row.
  core::CancelSource source;
  source.cancel();
  const core::RunContext cancelled =
      core::RunContext().set_cancel_token(source.token());
  const ActiveTimeLp aborted(inst, &cancelled);
  EXPECT_TRUE(aborted.build_cancelled());
  EXPECT_EQ(aborted.problem().num_rows(), 0);
  // solve_active_lp surfaces the abandoned build as kCancelled without
  // ever touching the partial model.
  EXPECT_EQ(solve_active_lp(aborted, &cancelled).status,
            lp::SolveStatus::kCancelled);
  EXPECT_EQ(solve_active_lp(aborted).status, lp::SolveStatus::kCancelled);

  // A budget that expires DURING construction (armed, then spun down to
  // zero) trips a mid-build poll: the model reports cancelled without the
  // caller ever reaching the simplex.
  const core::RunContext expiring = core::RunContext::with_budget_ms(1e-6);
  while (!expiring.out_of_budget()) {
  }
  const ActiveTimeLp mid_build(inst, &expiring);
  EXPECT_TRUE(mid_build.build_cancelled());

  // Control: the same instance with a live generous context builds fully
  // and solves — the polls are observation only.
  const core::RunContext generous = core::RunContext::with_budget_ms(60'000);
  const ActiveTimeLp complete(inst, &generous);
  EXPECT_FALSE(complete.build_cancelled());
  EXPECT_GT(complete.problem().num_rows(), 0);
  EXPECT_EQ(solve_active_lp(complete, &generous).status,
            lp::SolveStatus::kOptimal);
}

}  // namespace
}  // namespace abt::active
