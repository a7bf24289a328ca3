#include "busy/flexible_pipeline.hpp"

#include <gtest/gtest.h>

#include "busy/lower_bounds.hpp"
#include "core/rng.hpp"
#include "core/run_context.hpp"
#include "core/solver.hpp"
#include "engine/builtin_solvers.hpp"
#include "engine/runner.hpp"
#include "engine/scratch.hpp"
#include "gen/gadgets.hpp"
#include "gen/random_instances.hpp"

namespace abt::busy {
namespace {

using core::ContinuousInstance;

TEST(FlexiblePipeline, IntervalInstancePassesThrough) {
  core::Rng rng(17);
  gen::ContinuousParams params;
  params.num_jobs = 10;
  params.capacity = 2;
  const ContinuousInstance inst = gen::random_continuous(rng, params);
  const auto result = schedule_flexible(inst);
  ASSERT_TRUE(result.dp_exact);
  std::string why;
  EXPECT_TRUE(core::check_busy_schedule(inst, result.schedule, &why)) << why;
  EXPECT_NEAR(result.opt_infinity, core::span_of(inst.forced_intervals()),
              1e-9);
}

TEST(FlexiblePipeline, StartsComeFromTheDp) {
  const ContinuousInstance inst({{0, 10, 5}, {8, 13, 5}}, 1);
  const auto result = schedule_flexible(inst);
  std::string why;
  EXPECT_TRUE(core::check_busy_schedule(inst, result.schedule, &why)) << why;
  EXPECT_NEAR(result.opt_infinity, 8.0, 1e-9);
}

/// Property (section 4.3): the 3-approx pipeline stays within 3x the best
/// lower bound; the profile-charging variants within 4x.
class PipelineSweep : public ::testing::TestWithParam<int> {};

TEST_P(PipelineSweep, AllVariantsFeasibleAndBounded) {
  core::Rng rng(static_cast<std::uint64_t>(GetParam()) * 50021ULL);
  for (int trial = 0; trial < 5; ++trial) {
    gen::ContinuousParams params;
    params.num_jobs = static_cast<int>(rng.uniform_int(2, 10));
    params.capacity = static_cast<int>(rng.uniform_int(1, 3));
    params.horizon = 12;
    params.max_slack = 1.5;
    const ContinuousInstance inst = gen::random_continuous(rng, params);

    const BusyLowerBounds lb = busy_lower_bounds(inst);
    const double bound = std::max(lb.mass, lb.span);
    ASSERT_GT(bound, 0.0);

    for (const auto algo :
         {IntervalAlgorithm::kGreedyTracking, IntervalAlgorithm::kTwoTrackPeeling,
          IntervalAlgorithm::kFirstFit, IntervalAlgorithm::kFirstFitByRelease}) {
      const auto result = schedule_flexible(inst, algo);
      ASSERT_TRUE(result.dp_exact);
      std::string why;
      EXPECT_TRUE(core::check_busy_schedule(inst, result.schedule, &why))
          << why;
      const double cost = core::busy_cost(inst, result.schedule);
      EXPECT_GE(cost, bound - 1e-6);
      if (algo == IntervalAlgorithm::kGreedyTracking) {
        // Theorem 5 + exact DP: Sp(B1) <= OPT_inf and the rest <= 2 mass/g.
        EXPECT_LE(cost, result.opt_infinity + 2 * lb.mass + 1e-6)
            << "3-approximation accounting violated";
      } else {
        EXPECT_LE(cost, 4 * std::max(lb.mass, lb.span) + 1e-5)
            << "Theorem 10's factor-4 bound violated";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineSweep, ::testing::Range(1, 9));

TEST(FlexiblePipeline, Fig6FamilyStaysWithinThree) {
  const int g = 3;
  const double eps = 0.1;
  const ContinuousInstance inst = gen::fig6_instance(g, eps);
  const auto result = schedule_flexible(inst);
  ASSERT_TRUE(result.dp_exact);
  std::string why;
  EXPECT_TRUE(core::check_busy_schedule(inst, result.schedule, &why)) << why;
  const double opt = gen::fig6_optimal_cost(g, eps);
  const double cost = core::busy_cost(inst, result.schedule);
  EXPECT_LE(cost, 3 * opt + 1e-6);
}

/// A stopped g = infinity DP must not sink the pipeline: under a
/// pre-cancelled context it keeps the push-left fallback, which is still
/// checker-valid, and says so (timed_out, dp_exact 0, no opt_inf bound).
TEST(FlexiblePipeline, CancelledContextKeepsTheFallbackSchedule) {
  engine::ScenarioSpec spec;
  spec.name = "flexible";
  spec.n = 1024;
  spec.g = 8;
  spec.seed = 5;
  const auto inst = engine::make_scenario(spec);
  ASSERT_TRUE(inst.has_value());
  core::CancelSource source;
  source.cancel();
  core::RunContext ctx;
  ctx.set_cancel_token(source.token());

  UnboundedOptions options;
  options.context = &ctx;
  const FlexiblePipelineResult direct = schedule_flexible(
      inst->continuous, IntervalAlgorithm::kGreedyTracking, options);
  EXPECT_FALSE(direct.dp_exact);
  EXPECT_TRUE(direct.timed_out);
  std::string why;
  EXPECT_TRUE(core::check_busy_schedule(inst->continuous, direct.schedule,
                                        &why))
      << why;

  // The registered pipelines, run directly: the registry declines a
  // cancelled batch before any solver starts. A solve of another instance
  // leaves the worker's memo cold for this one.
  spec.n = 8;
  const auto other = engine::make_scenario(spec);
  ASSERT_TRUE(other.has_value());
  for (const char* name :
       {"busy/pipeline-greedy-tracking", "busy/pipeline-two-track-peeling",
        "busy/pipeline-first-fit"}) {
    const core::Solver* solver = engine::shared_registry().find(name);
    ASSERT_NE(solver, nullptr) << name;
    const core::RunContext free_run;
    ASSERT_TRUE(engine::shared_unbounded(other->continuous, free_run).exact);
    const core::Solution sol = solver->run(*inst, ctx);
    ASSERT_TRUE(sol.ok) << name;
    ASSERT_TRUE(sol.busy.has_value()) << name;
    EXPECT_TRUE(core::check_busy_schedule(inst->continuous, *sol.busy, &why))
        << name << ": " << why;
    EXPECT_TRUE(sol.timed_out) << name;
    EXPECT_EQ(sol.stat("dp_exact", 1.0), 0.0) << name;
    EXPECT_LT(sol.stat("opt_inf", -1.0), 0.0) << name;
  }
}

}  // namespace
}  // namespace abt::busy
