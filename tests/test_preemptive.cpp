#include "busy/preemptive.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "preemptive_layout.hpp"
#include "core/rng.hpp"
#include "engine/runner.hpp"
#include "gen/random_instances.hpp"
#include "lp/simplex.hpp"

namespace abt::busy {
namespace {

using core::ContinuousInstance;

/// Independent optimum for preemptive g=infinity on *integer* instances:
/// the covering LP  min sum y_t  s.t.  sum_{t in W_j} y_t >= p_j,
/// 0 <= y_t <= 1  has an interval constraint matrix, hence is integral and
/// equals the preemptive unbounded optimum.
double lp_reference_unbounded(const ContinuousInstance& inst) {
  long horizon = 0;
  for (int j = 0; j < inst.size(); ++j) {
    horizon = std::max(horizon, static_cast<long>(inst.job(j).deadline));
  }
  lp::LinearProblem p;
  for (long t = 0; t < horizon; ++t) p.add_variable(1.0);
  for (long t = 0; t < horizon; ++t) {
    p.add_row({{static_cast<int>(t), 1.0}}, lp::Sense::kLessEqual, 1.0);
  }
  for (int j = 0; j < inst.size(); ++j) {
    std::vector<std::pair<int, double>> coeffs;
    for (long t = static_cast<long>(inst.job(j).release);
         t < static_cast<long>(inst.job(j).deadline); ++t) {
      coeffs.emplace_back(static_cast<int>(t), 1.0);
    }
    p.add_row(std::move(coeffs), lp::Sense::kGreaterEqual, inst.job(j).length);
  }
  const lp::Solution s = lp::SimplexSolver().solve(p);
  EXPECT_EQ(s.status, lp::SolveStatus::kOptimal);
  return s.objective;
}

TEST(PreemptiveUnbounded, SingleJobOpensExactlyItsLength) {
  const ContinuousInstance inst({{0, 10, 3}}, 1);
  const auto sol = solve_preemptive_unbounded(inst);
  EXPECT_NEAR(sol.busy_time, 3.0, 1e-9);
  std::string why;
  EXPECT_TRUE(core::check_preemptive_schedule(
      ContinuousInstance(inst.jobs(), inst.size() + 1), sol.schedule, &why))
      << why;
}

TEST(PreemptiveUnbounded, SharedWindowReusesOpenTime) {
  // Two jobs with the same window: open max(p1, p2) with g = infinity.
  const ContinuousInstance inst({{0, 10, 4}, {0, 10, 2}}, 2);
  const auto sol = solve_preemptive_unbounded(inst);
  EXPECT_NEAR(sol.busy_time, 4.0, 1e-9);
}

TEST(PreemptiveUnbounded, PreemptionSplitsAroundFullStretch) {
  // Job A rigid [3,5); job B window [0,8) length 6: B uses [3,5) too but
  // needs 6 total -> open 6 (B preempts around nothing, runs alongside A).
  const ContinuousInstance inst({{3, 5, 2}, {0, 8, 6}}, 2);
  const auto sol = solve_preemptive_unbounded(inst);
  EXPECT_NEAR(sol.busy_time, 6.0, 1e-9);
}

TEST(PreemptiveUnbounded, DisjointWindowsAddUp) {
  const ContinuousInstance inst({{0, 3, 2}, {10, 14, 3}}, 1);
  const auto sol = solve_preemptive_unbounded(inst);
  EXPECT_NEAR(sol.busy_time, 5.0, 1e-9);
}

TEST(PreemptiveUnbounded, OpensTimeAsLateAsPossible) {
  const ContinuousInstance inst({{0, 10, 2}}, 1);
  const auto sol = solve_preemptive_unbounded(inst);
  ASSERT_EQ(sol.open.size(), 1u);
  EXPECT_NEAR(sol.open[0].lo, 8.0, 1e-9);
  EXPECT_NEAR(sol.open[0].hi, 10.0, 1e-9);
}

TEST(PreemptiveUnbounded, TakesASliverGapWhenNothingElseIsLeft) {
  // Job 0 opens [0, 0.5]. Job 1's window leaves it 1e-9 short, and the
  // only free time in its window is the gap (0.5, 0.500000001], no longer
  // than the greedy's sliver threshold.
  const ContinuousInstance inst({{0.0, 0.5, 0.5}, {1e-9, 0.500000001, 0.5}},
                                2);
  ASSERT_TRUE(inst.structurally_valid());
  const auto unbounded = solve_preemptive_unbounded(inst);
  std::string why;
  EXPECT_TRUE(core::check_preemptive_schedule(
      ContinuousInstance(inst.jobs(), inst.size() + 1), unbounded.schedule,
      &why))
      << why;
  EXPECT_NEAR(unbounded.busy_time, 0.500000001, 1e-12);
  const auto bounded = solve_preemptive_bounded(inst);
  EXPECT_TRUE(core::check_preemptive_schedule(inst, bounded.schedule, &why))
      << why;
  EXPECT_EQ(bounded.busy_time, core::busy_cost(inst, bounded.schedule));
}

/// Property (Theorem 6): the greedy equals the integral covering LP on
/// integer instances.
class PreemptiveExactness : public ::testing::TestWithParam<int> {};

TEST_P(PreemptiveExactness, GreedyMatchesLpOptimum) {
  core::Rng rng(static_cast<std::uint64_t>(GetParam()) * 4391ULL + 11);
  for (int trial = 0; trial < 6; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 7));
    std::vector<core::ContinuousJob> jobs;
    for (int i = 0; i < n; ++i) {
      const double p = static_cast<double>(rng.uniform_int(1, 4));
      const double r = static_cast<double>(rng.uniform_int(0, 6));
      const double slack = static_cast<double>(rng.uniform_int(0, 6));
      jobs.push_back({r, r + p + slack, p});
    }
    const ContinuousInstance inst(std::move(jobs), 2);
    const auto sol = solve_preemptive_unbounded(inst);
    EXPECT_NEAR(sol.busy_time, lp_reference_unbounded(inst), 1e-5)
        << "Theorem 6: lazy greedy is exact for preemptive g=infinity";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PreemptiveExactness, ::testing::Range(1, 9));

/// Property (Theorem 7): bounded-g preemptive schedule is feasible and
/// within twice max(OPT_inf, mass/g) — hence within 2 OPT.
class PreemptiveBounded : public ::testing::TestWithParam<int> {};

TEST_P(PreemptiveBounded, FeasibleAndWithinTwiceLowerBound) {
  core::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7717ULL + 1);
  for (int trial = 0; trial < 8; ++trial) {
    gen::ContinuousParams params;
    params.num_jobs = static_cast<int>(rng.uniform_int(2, 15));
    params.capacity = static_cast<int>(rng.uniform_int(1, 4));
    params.horizon = 15;
    params.max_slack = 2.0;
    const ContinuousInstance inst = gen::random_continuous(rng, params);
    const auto sol = solve_preemptive_bounded(inst);
    std::string why;
    EXPECT_TRUE(core::check_preemptive_schedule(inst, sol.schedule, &why))
        << why;
    const double lb = std::max(sol.opt_infinity, inst.mass_lower_bound());
    EXPECT_LE(sol.busy_time, 2 * lb + 1e-6) << "Theorem 7 bound violated";
    EXPECT_GE(sol.busy_time, lb - 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PreemptiveBounded, ::testing::Range(1, 9));

/// The OpenSet-backed rewrite must reproduce the frozen full-scan original
/// bit for bit: same open set, same pieces, same machines — across sizes
/// well past anything the unit tests above touch.
TEST(PreemptiveEquivalence, MatchesNaiveBaselineExactly) {
  for (const std::uint64_t seed : {21ULL, 22ULL, 23ULL, 24ULL}) {
    core::Rng rng(seed * 6689ULL);
    gen::ContinuousParams params;
    params.num_jobs = static_cast<int>(rng.uniform_int(40, 300));
    params.capacity = static_cast<int>(rng.uniform_int(1, 4));
    params.horizon = params.num_jobs / 6.0 + 12.0;
    params.max_slack = 2.5;
    const ContinuousInstance inst = gen::random_continuous(rng, params);

    const auto fast_u = solve_preemptive_unbounded(inst);
    const auto slow_u = naive::solve_preemptive_unbounded(inst);
    EXPECT_EQ(fast_u.busy_time, slow_u.busy_time);
    ASSERT_EQ(fast_u.open.size(), slow_u.open.size());
    for (std::size_t i = 0; i < fast_u.open.size(); ++i) {
      EXPECT_EQ(fast_u.open[i], slow_u.open[i]) << "open interval " << i;
    }

    const auto fast_b = solve_preemptive_bounded(inst);
    const auto slow_b = naive::solve_preemptive_bounded(inst);
    EXPECT_EQ(fast_b.busy_time, slow_b.busy_time);
    EXPECT_EQ(fast_b.opt_infinity, slow_b.opt_infinity);
    ASSERT_EQ(fast_b.schedule.pieces.size(), slow_b.schedule.pieces.size());
    for (std::size_t j = 0; j < fast_b.schedule.pieces.size(); ++j) {
      const auto& fp = fast_b.schedule.pieces[j];
      const auto& sp = slow_b.schedule.pieces[j];
      ASSERT_EQ(fp.size(), sp.size()) << "piece count of job " << j;
      for (std::size_t k = 0; k < fp.size(); ++k) {
        EXPECT_EQ(fp[k].machine, sp[k].machine) << "job " << j;
        EXPECT_EQ(fp[k].run, sp[k].run) << "job " << j;
      }
    }
  }
}

/// The dealing sweep against the frozen per-cell scan, bit for bit: same
/// bound, same pieces, same machines, same cost.
void expect_bounded_matches_naive(const ContinuousInstance& inst,
                                  const std::string& label) {
  const auto fast = solve_preemptive_bounded(inst);
  const auto slow = naive::solve_preemptive_bounded(inst);
  EXPECT_EQ(fast.busy_time, slow.busy_time) << label;
  EXPECT_EQ(fast.opt_infinity, slow.opt_infinity) << label;
  ASSERT_EQ(fast.schedule.pieces.size(), slow.schedule.pieces.size()) << label;
  for (std::size_t j = 0; j < fast.schedule.pieces.size(); ++j) {
    const auto& fp = fast.schedule.pieces[j];
    const auto& sp = slow.schedule.pieces[j];
    ASSERT_EQ(fp.size(), sp.size()) << label << " piece count of job " << j;
    for (std::size_t k = 0; k < fp.size(); ++k) {
      EXPECT_EQ(fp[k].machine, sp[k].machine) << label << " job " << j;
      EXPECT_EQ(fp[k].run, sp[k].run) << label << " job " << j;
    }
  }
}

/// The campaign's own shapes (its three random busy families at n = 1024,
/// g = 8) and the clique, proper and laminar families, plus the empty and
/// one-job instances and g = 1, 2, 3, down to a machine per running job.
TEST(PreemptiveEquivalence, MatchesNaiveBaselineAtCampaignScale) {
  for (const char* scenario :
       {"interval", "flexible", "bursty", "clique", "proper", "laminar"}) {
    for (const auto& [n, g] :
         {std::pair{1024, 8}, std::pair{0, 8}, std::pair{1, 8},
          std::pair{1024, 1}, std::pair{1024, 2}, std::pair{1024, 3}}) {
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        engine::ScenarioSpec spec;
        spec.name = scenario;
        spec.n = n;
        spec.g = g;
        spec.seed = seed;
        const auto inst = engine::make_scenario(spec);
        ASSERT_TRUE(inst.has_value()) << scenario;
        expect_bounded_matches_naive(
            inst->continuous, std::string(scenario) + " n=" +
                                  std::to_string(n) + " g=" +
                                  std::to_string(g) + " seed=" +
                                  std::to_string(seed));
      }
    }
  }
}

/// Deadlines at 1e-9, 2e-9 and 4e-9, inside the busy time that later
/// deadlines open, put piece ends exactly kEps apart, so the cell between
/// them is skipped and the next cell does not abut the last: every piece
/// and every machine run must break there, as in the per-cell scan. The
/// windows are wide enough that no job has to open sliver gaps.
TEST(PreemptiveEquivalence, MatchesNaiveBaselineAcrossSkippedCells) {
  const auto pick = [](core::Rng& rng, std::initializer_list<double> values) {
    return *(values.begin() +
             rng.uniform_int(0, static_cast<std::int64_t>(values.size()) - 1));
  };
  int skipped = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    core::Rng rng(seed * 7877ULL);
    const int n = static_cast<int>(rng.uniform_int(1, 4));
    std::vector<core::ContinuousJob> jobs;
    for (int j = 0; j < n; ++j) {
      const double release = pick(rng, {-5.0, -4.0});
      const double deadline = pick(rng, {1e-9, 2e-9, 4e-9, 1.0});
      jobs.push_back({release, deadline, pick(rng, {0.25, 0.5, 0.75})});
    }
    const ContinuousInstance inst(std::move(jobs),
                                  static_cast<int>(rng.uniform_int(1, 2)));
    // The cut points as the deal folds them; a skipped cell is a pair of
    // consecutive ones no more than 1e-9 apart.
    const auto unbounded = naive::solve_preemptive_unbounded(inst);
    std::vector<double> ends;
    for (const auto& pieces : unbounded.schedule.pieces) {
      for (const auto& piece : pieces) {
        ends.push_back(piece.run.lo);
        ends.push_back(piece.run.hi);
      }
    }
    std::sort(ends.begin(), ends.end());
    ends.erase(std::unique(ends.begin(), ends.end(),
                           [](double a, double b) {
                             return std::abs(a - b) < 1e-9;
                           }),
               ends.end());
    for (std::size_t i = 1; i < ends.size(); ++i) {
      if (ends[i] - ends[i - 1] <= 1e-9) ++skipped;
    }
    expect_bounded_matches_naive(inst, "seed=" + std::to_string(seed));
  }
  EXPECT_GT(skipped, 0) << "the instances must produce skipped cells";
}

/// Job 2's g = infinity pieces [0, 1) and [1 + 5e-10, 2) straddle a sliver
/// of U's complement, so their ends fold into one cut point: the job
/// leaves and re-enters the running set at the same cell. It keeps its
/// rank and machine there, so its bounded piece runs on unbroken.
TEST(PreemptiveEquivalence, JobReenteringAtTheSameCellKeepsItsPiece) {
  const double gap_end = 1.0 + 5e-10;
  const ContinuousInstance inst(
      {{0, 1, 1}, {gap_end, 2, 2 - gap_end}, {0, 3, 2.5 - 5e-10}}, 1);
  const auto unbounded = solve_preemptive_unbounded(inst);
  ASSERT_EQ(unbounded.schedule.pieces[2].size(), 3u);
  EXPECT_EQ(unbounded.schedule.pieces[2][1].run.lo, gap_end);
  expect_bounded_matches_naive(inst, "sliver gap");
  const auto bounded = solve_preemptive_bounded(inst);
  ASSERT_FALSE(bounded.schedule.pieces[2].empty());
  EXPECT_EQ(bounded.schedule.pieces[2][0].run.lo, 0.0);
  EXPECT_EQ(bounded.schedule.pieces[2][0].run.hi, 2.0);
}

/// The busy time summed inside the deal is bit-for-bit the cost the
/// checker-side core::busy_cost recomputes from the returned schedule.
TEST(PreemptiveBounded, BusyTimeEqualsBusyCostOfTheSchedule) {
  for (const char* scenario :
       {"interval", "flexible", "bursty", "clique", "proper", "laminar"}) {
    for (const int n : {8, 64, 1024}) {
      for (const int g : {1, 2, 3, 8}) {
        engine::ScenarioSpec spec;
        spec.name = scenario;
        spec.n = n;
        spec.g = g;
        const auto inst = engine::make_scenario(spec);
        ASSERT_TRUE(inst.has_value()) << scenario;
        const auto sol = solve_preemptive_bounded(inst->continuous);
        EXPECT_EQ(sol.busy_time,
                  core::busy_cost(inst->continuous, sol.schedule))
            << scenario << " n=" << n << " g=" << g;
      }
    }
  }
}

}  // namespace
}  // namespace abt::busy
