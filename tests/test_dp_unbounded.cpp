#include "busy/dp_unbounded.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/io.hpp"
#include "core/rng.hpp"
#include "core/run_context.hpp"
#include "core/sweep.hpp"
#include "dp_unbounded_oracle.hpp"
#include "engine/builtin_solvers.hpp"
#include "engine/runner.hpp"
#include "gen/gadgets.hpp"
#include "gen/random_instances.hpp"
#include "test_util.hpp"

namespace abt::busy {
namespace {

using core::ContinuousInstance;

void expect_valid_solution(const ContinuousInstance& inst,
                           const UnboundedSolution& sol) {
  ASSERT_EQ(sol.starts.size(), static_cast<std::size_t>(inst.size()));
  std::vector<core::Interval> runs;
  for (int j = 0; j < inst.size(); ++j) {
    const auto& job = inst.job(j);
    const double s = sol.starts[static_cast<std::size_t>(j)];
    EXPECT_GE(s, job.release - 1e-9) << "job " << j;
    EXPECT_LE(s, job.latest_start() + 1e-9) << "job " << j;
    runs.push_back({s, s + job.length});
  }
  EXPECT_NEAR(core::span_of(runs), sol.busy_time, 1e-9);
}

TEST(DpUnbounded, EmptyInstance) {
  const ContinuousInstance inst({}, 1);
  const auto sol = solve_unbounded(inst);
  EXPECT_DOUBLE_EQ(sol.busy_time, 0.0);
  EXPECT_TRUE(sol.exact);
}

TEST(DpUnbounded, SingleJobCostsItsLength) {
  const ContinuousInstance inst({{2, 9, 3}}, 1);
  const auto sol = solve_unbounded(inst);
  expect_valid_solution(inst, sol);
  EXPECT_NEAR(sol.busy_time, 3.0, 1e-9);
}

TEST(DpUnbounded, OverlappingFlexibleJobsStack) {
  // Two flexible jobs that can fully overlap: cost = max length.
  const ContinuousInstance inst({{0, 10, 4}, {0, 10, 3}}, 1);
  const auto sol = solve_unbounded(inst);
  expect_valid_solution(inst, sol);
  EXPECT_NEAR(sol.busy_time, 4.0, 1e-9);
}

TEST(DpUnbounded, BridgingJobLinksTwoRigidOnes) {
  // Rigid [0,2) and [8,10); flexible length 2 in window [0,10): tucks into
  // either rigid run -> total 4, no bridge needed.
  const ContinuousInstance inst({{0, 2, 2}, {8, 10, 2}, {0, 10, 2}}, 1);
  const auto sol = solve_unbounded(inst);
  expect_valid_solution(inst, sol);
  EXPECT_NEAR(sol.busy_time, 4.0, 1e-9);
}

TEST(DpUnbounded, AnchoredAtLatestStart) {
  // The [5,13) merge example: A window [0,10) p=5, B rigid [8,13) p=5.
  // Optimal: A at [5,10) glued to B -> busy time 8.
  const ContinuousInstance inst({{0, 10, 5}, {8, 13, 5}}, 1);
  const auto sol = solve_unbounded(inst);
  expect_valid_solution(inst, sol);
  EXPECT_NEAR(sol.busy_time, 8.0, 1e-9);
}

TEST(DpUnbounded, FlexibleParksInEarlyRunDespiteLateDeadline) {
  // The case that breaks naive consecutive-grouping DPs: rigid [0,10),
  // rigid [20,21), flexible p=10 window [0,1000) must reuse the *early*
  // run even though its deadline is the latest.
  const ContinuousInstance inst({{0, 10, 10}, {20, 21, 1}, {0, 1000, 10}}, 1);
  const auto sol = solve_unbounded(inst);
  expect_valid_solution(inst, sol);
  EXPECT_NEAR(sol.busy_time, 11.0, 1e-9);
}

TEST(DpUnbounded, IntervalJobsGiveExactlyTheSpan) {
  core::Rng rng(5);
  gen::ContinuousParams params;
  params.num_jobs = 14;
  params.horizon = 18;
  const ContinuousInstance inst = gen::random_continuous(rng, params);
  const auto sol = solve_unbounded(inst);
  EXPECT_NEAR(sol.busy_time, core::span_of(inst.forced_intervals()), 1e-9);
}

TEST(DpUnbounded, Fig9FreezeIsSpanOptimal) {
  const int g = 4;
  const double eps = 0.01;
  const auto flexible = gen::fig9_instance(g, eps);
  const auto adversarial = gen::fig9_adversarial_freeze(g, eps);
  const auto sol = solve_unbounded(flexible);
  ASSERT_TRUE(sol.exact);
  // The adversarial freeze hides every flexible job inside a block, so the
  // DP value must equal its span (the minimum possible).
  EXPECT_NEAR(sol.busy_time, core::span_of(adversarial.forced_intervals()),
              1e-9);
}

TEST(DpUnbounded, FreezeProducesIntervalInstanceWithSameCapacity) {
  const ContinuousInstance inst({{0, 10, 5}, {8, 13, 5}}, 7);
  const auto sol = solve_unbounded(inst);
  const ContinuousInstance frozen = freeze_to_interval_instance(inst, sol);
  EXPECT_EQ(frozen.capacity(), 7);
  EXPECT_TRUE(frozen.all_interval_jobs());
  EXPECT_NEAR(core::span_of(frozen.forced_intervals()), sol.busy_time, 1e-9);
}

TEST(DpUnbounded, ManyIdenticalStragglersStayTractable) {
  // 12 identical flexible jobs spanning three rigid anchors: identical jobs
  // are satisfied all-or-none by any window, so the pending sets stay
  // block-structured and the state count stays tiny.
  std::vector<core::ContinuousJob> jobs;
  for (int k = 0; k < 3; ++k) {
    jobs.push_back({10.0 * k, 10.0 * k + 2, 2.0});  // rigid anchors
  }
  for (int i = 0; i < 12; ++i) {
    jobs.push_back({0.0, 100.0, 1.5});  // identical straddlers
  }
  const ContinuousInstance inst(std::move(jobs), 1);
  const auto sol = solve_unbounded(inst);
  ASSERT_TRUE(sol.exact);
  expect_valid_solution(inst, sol);
  // Straggers tuck inside the 2-wide anchors: cost = 3 anchors only.
  EXPECT_NEAR(sol.busy_time, 6.0, 1e-9);
  EXPECT_LT(sol.nodes, 2000) << "identical jobs must collapse in the state";
}

TEST(DpUnbounded, StateLimitFallsBackToValidUpperBound) {
  std::vector<core::ContinuousJob> jobs;
  core::Rng rng(33);
  for (int i = 0; i < 10; ++i) {
    const double r = rng.uniform_real(0, 10);
    const double p = rng.uniform_real(0.5, 2.0);
    jobs.push_back({r, r + p + rng.uniform_real(0, 4), p});
  }
  const ContinuousInstance inst(std::move(jobs), 1);
  UnboundedOptions options;
  options.state_limit = 1;  // force the fallback
  const auto sol = solve_unbounded(inst, options);
  EXPECT_FALSE(sol.exact);
  expect_valid_solution(inst, sol);  // push-left schedule is still feasible
  const auto exact = solve_unbounded(inst);
  ASSERT_TRUE(exact.exact);
  EXPECT_GE(sol.busy_time, exact.busy_time - 1e-9)
      << "fallback is an upper bound";
}

/// Property: exact against full enumeration of integral starts.
class DpVsBrute : public ::testing::TestWithParam<int> {};

TEST_P(DpVsBrute, MatchesBruteForceOnIntegerInstances) {
  core::Rng rng(static_cast<std::uint64_t>(GetParam()) * 60013ULL);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 6));
    std::vector<core::ContinuousJob> jobs;
    for (int i = 0; i < n; ++i) {
      const double p = static_cast<double>(rng.uniform_int(1, 4));
      const double r = static_cast<double>(rng.uniform_int(0, 8));
      const double slack = static_cast<double>(rng.uniform_int(0, 5));
      jobs.push_back({r, r + p + slack, p});
    }
    const ContinuousInstance inst(std::move(jobs), 1);
    const double brute = testutil::brute_force_unbounded(inst);
    const auto sol = solve_unbounded(inst);
    ASSERT_TRUE(sol.exact);
    expect_valid_solution(inst, sol);
    EXPECT_NEAR(sol.busy_time, brute, 1e-9)
        << "g=infinity DP must be exact (Theorem 4)";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpVsBrute, ::testing::Range(1, 17));

// ---------------------------------------------------------------------------
// Equivalence with the frozen rescan DP (tests/oracles/dp_unbounded_oracle.hpp):
// the dead-pair test must reject exactly the pairs the rescan rejected, so
// every output field is identical, including the search statistics.

void expect_same_as_oracle(const ContinuousInstance& inst,
                           const std::string& what) {
  const UnboundedSolution got = solve_unbounded(inst);
  const UnboundedSolution want = oracle::solve_unbounded(inst);
  EXPECT_EQ(got.starts, want.starts) << what;
  ASSERT_EQ(got.windows.size(), want.windows.size()) << what;
  for (std::size_t i = 0; i < got.windows.size(); ++i) {
    EXPECT_EQ(got.windows[i].lo, want.windows[i].lo) << what;
    EXPECT_EQ(got.windows[i].hi, want.windows[i].hi) << what;
  }
  EXPECT_EQ(got.busy_time, want.busy_time) << what;
  EXPECT_EQ(got.exact, want.exact) << what;
  EXPECT_EQ(got.timed_out, want.timed_out) << what;
  EXPECT_EQ(got.nodes, want.nodes) << what;
  EXPECT_EQ(got.interned, want.interned) << what;
}

TEST(DpOracle, HandWrittenCasesMatch) {
  const std::vector<ContinuousInstance> cases = {
      ContinuousInstance({}, 1),
      ContinuousInstance({{2, 9, 3}}, 1),
      ContinuousInstance({{0, 10, 4}, {0, 10, 3}}, 1),
      ContinuousInstance({{0, 2, 2}, {8, 10, 2}, {0, 10, 2}}, 1),
      ContinuousInstance({{0, 10, 5}, {8, 13, 5}}, 1),
      ContinuousInstance({{0, 10, 10}, {20, 21, 1}, {0, 1000, 10}}, 1),
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    expect_same_as_oracle(cases[i], "case " + std::to_string(i));
  }
  std::vector<core::ContinuousJob> stragglers;
  for (int k = 0; k < 3; ++k) stragglers.push_back({10.0 * k, 10.0 * k + 2, 2.0});
  for (int i = 0; i < 12; ++i) stragglers.push_back({0.0, 100.0, 1.5});
  expect_same_as_oracle(ContinuousInstance(std::move(stragglers), 1),
                        "identical stragglers");
  for (int seed = 1; seed < 17; ++seed) {
    core::Rng rng(static_cast<std::uint64_t>(seed) * 60013ULL);
    for (int trial = 0; trial < 12; ++trial) {
      const int n = static_cast<int>(rng.uniform_int(1, 6));
      std::vector<core::ContinuousJob> jobs;
      for (int i = 0; i < n; ++i) {
        const double p = static_cast<double>(rng.uniform_int(1, 4));
        const double r = static_cast<double>(rng.uniform_int(0, 8));
        const double slack = static_cast<double>(rng.uniform_int(0, 5));
        jobs.push_back({r, r + p + slack, p});
      }
      expect_same_as_oracle(ContinuousInstance(std::move(jobs), 1),
                            "brute-force seed " + std::to_string(seed));
    }
  }
}

TEST(DpOracle, GadgetFamiliesMatch) {
  expect_same_as_oracle(gen::fig1_example(), "fig1");
  for (int g = 2; g <= 6; ++g) {
    for (const double eps : {0.01, 0.1}) {
      const std::string tag =
          " g=" + std::to_string(g) + " eps=" + std::to_string(eps);
      expect_same_as_oracle(gen::fig6_instance(g, eps), "fig6" + tag);
      expect_same_as_oracle(gen::fig7_adversarial_freeze(g, eps), "fig7" + tag);
      expect_same_as_oracle(gen::fig9_instance(g, eps), "fig9" + tag);
      expect_same_as_oracle(gen::fig9_adversarial_freeze(g, eps),
                            "fig9 adversarial" + tag);
      expect_same_as_oracle(gen::fig9_optimal_freeze(g, eps),
                            "fig9 optimal" + tag);
      expect_same_as_oracle(gen::fig10_instance(g, eps, eps / 10), "fig10" + tag);
      expect_same_as_oracle(gen::fig10_adversarial_freeze(g, eps, eps / 10),
                            "fig10 adversarial" + tag);
    }
  }
  expect_same_as_oracle(gen::fig8_instance(0.01, 0.001), "fig8");
}

TEST(DpOracle, ReplayCorpusMatches) {
  int checked = 0;
  for (const char* name : {"continuous_interval.txt", "fig6_tracking_tight.txt"}) {
    std::ifstream in(std::string(ABT_DATA_DIR) + "/" + name);
    ASSERT_TRUE(in.is_open()) << name;
    std::string error;
    const auto parsed = core::parse_instance(in, &error);
    ASSERT_TRUE(parsed.has_value()) << name << ": " << error;
    expect_same_as_oracle(parsed->continuous, name);
    ++checked;
  }
  EXPECT_EQ(checked, 2);
}

TEST(DpOracle, RandomScenariosUpTo1024Match) {
  for (const char* scenario :
       {"flexible", "bursty", "interval", "clique", "proper", "laminar"}) {
    for (const int n : {8, 32, 128, 512, 1024}) {
      for (int seed = 1; seed <= (n >= 512 ? 2 : 4); ++seed) {
        engine::ScenarioSpec spec;
        spec.name = scenario;
        spec.n = n;
        spec.g = 8;
        spec.seed = static_cast<std::uint64_t>(seed);
        const auto inst = engine::make_scenario(spec);
        ASSERT_TRUE(inst.has_value());
        expect_same_as_oracle(inst->continuous,
                              std::string(scenario) + " n=" +
                                  std::to_string(n) + " seed=" +
                                  std::to_string(seed));
      }
    }
  }
}

/// busy/dp-unbounded answers rigid instances without the DP. Its row must
/// be the one the DP would give: the same verdict, the same OPT_inf, and
/// when the freeze fits g, the same placements. Covers the interval-job
/// families, g from 1 to past n, and hand-built ties and touching runs.
TEST(DpUnbounded, RigidRowMatchesTheDp) {
  const auto& registry = engine::shared_registry();
  std::vector<std::pair<std::string, ContinuousInstance>> cases;
  for (const char* scenario : {"interval", "clique", "proper", "laminar"}) {
    for (const int n : {1, 8, 64, 1024}) {
      for (const int g : {1, 3, 8, 2048}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
          engine::ScenarioSpec spec;
          spec.name = scenario;
          spec.n = n;
          spec.g = g;
          spec.seed = seed;
          const auto inst = engine::make_scenario(spec);
          ASSERT_TRUE(inst.has_value());
          cases.emplace_back(std::string(scenario) + " n=" +
                                 std::to_string(n) + " g=" +
                                 std::to_string(g) + " seed=" +
                                 std::to_string(seed),
                             inst->continuous);
        }
      }
    }
  }
  // Equal releases, runs touching at exactly one point, a nested run.
  cases.emplace_back("hand", ContinuousInstance({{0, 2, 2}, {0, 1, 1},
                                                 {2, 3, 1}, {1, 2, 1},
                                                 {0.5, 0.75, 0.25}},
                                                2));
  for (const auto& [label, inst] : cases) {
    ASSERT_TRUE(inst.all_interval_jobs(1e-12)) << label;
    const core::Solution row =
        registry.run("busy/dp-unbounded", core::make_instance(inst));
    const UnboundedSolution dp = solve_unbounded(inst);
    ASSERT_TRUE(dp.exact) << label;
    const int peak = core::max_concurrency(
        freeze_to_interval_instance(inst, dp).forced_intervals());
    EXPECT_EQ(row.ok, peak <= inst.capacity()) << label;
    EXPECT_EQ(row.stat("opt_inf", -1.0), dp.busy_time) << label;
    EXPECT_EQ(row.stat("dp_states", -1.0), -1.0) << label << ": DP skipped";
    if (!row.ok) {
      EXPECT_EQ(row.message, "frozen g=inf solution exceeds capacity g")
          << label;
      continue;
    }
    EXPECT_TRUE(row.feasible && row.exact) << label;
    ASSERT_TRUE(row.busy.has_value()) << label;
    for (int j = 0; j < inst.size(); ++j) {
      EXPECT_EQ(row.busy->placements[static_cast<std::size_t>(j)].start,
                dp.starts[static_cast<std::size_t>(j)])
          << label << " job " << j;
    }
  }
}

/// A job whose length rounds away at its release (release + length ==
/// release) made the DP re-enter its own unmemoized state until the stack
/// overflowed. The instance check now rejects it; every instance it lets
/// through must solve and pass the checker, down to lengths of 1e-20.
TEST(DpUnbounded, VanishingLengthsAreRejectedOrSolved) {
  const ContinuousInstance repro({{0, 1, 1}, {1, 1.0000001, 1e-20}}, 2);
  std::string why;
  EXPECT_FALSE(repro.structurally_valid(&why));
  EXPECT_NE(why.find("job 1: length vanishes"), std::string::npos) << why;

  const core::SolverRegistry& registry = engine::shared_registry();
  core::Rng rng(2024);
  int rejected = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 6));
    std::vector<core::ContinuousJob> jobs;
    for (int i = 0; i < n; ++i) {
      // Releases far from 0 and at small integers; lengths log-uniform.
      const double release = rng.uniform_int(0, 1) == 0
                                  ? rng.uniform_real(0.0, 1e6)
                                  : static_cast<double>(rng.uniform_int(0, 3));
      const double length = std::pow(10.0, rng.uniform_real(-20.0, 0.0));
      const double slack =
          rng.uniform_int(0, 1) == 0 ? 0.0 : rng.uniform_real(0.0, 2.0);
      jobs.push_back({release, release + length + slack, length});
    }
    // Capacity n: the g = infinity schedule must fit one machine.
    const ContinuousInstance inst(std::move(jobs), n);
    if (!inst.structurally_valid()) {
      ++rejected;
      continue;
    }
    const UnboundedSolution sol = solve_unbounded(inst);
    EXPECT_TRUE(sol.exact) << "trial " << trial;
    expect_valid_solution(inst, sol);
    const core::Solution row =
        registry.run("busy/dp-unbounded", core::make_instance(inst));
    EXPECT_TRUE(row.ok && row.feasible)
        << "trial " << trial << ": " << row.message;
  }
  EXPECT_GT(rejected, 0);
  EXPECT_LT(rejected, 2000);
}

TEST(DpCancellation, CancelledContextStopsWithinTheFirstState) {
  // A flexible instance expands only a handful of states, so a poll on the
  // state counter alone never fires; the per-anchor poll must.
  engine::ScenarioSpec spec;
  spec.name = "flexible";
  spec.n = 256;
  spec.g = 8;
  const auto inst = engine::make_scenario(spec);
  ASSERT_TRUE(inst.has_value());
  core::CancelSource source;
  source.cancel();
  core::RunContext ctx;
  ctx.set_cancel_token(source.token());
  UnboundedOptions options;
  options.context = &ctx;
  const UnboundedSolution stopped = solve_unbounded(inst->continuous, options);
  EXPECT_FALSE(stopped.exact);
  EXPECT_TRUE(stopped.timed_out);
  expect_valid_solution(inst->continuous, stopped);

  core::RunContext free_run;
  options.context = &free_run;
  const UnboundedSolution full = solve_unbounded(inst->continuous, options);
  EXPECT_TRUE(full.exact);
  EXPECT_FALSE(full.timed_out);
}

}  // namespace
}  // namespace abt::busy
