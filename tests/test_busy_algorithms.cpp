// Integration tests across the interval-job busy-time algorithms: FIRSTFIT
// (baseline), GREEDYTRACKING (Theorem 5) and TwoTrackPeeling (Theorem 3
// charging), against the paper's lower bounds and the exact solver.
#include <gtest/gtest.h>

#include "busy/demand_profile.hpp"
#include "busy/first_fit.hpp"
#include "busy/greedy_tracking.hpp"
#include "busy/lower_bounds.hpp"
#include "busy/two_track_peeling.hpp"
#include "busy/weighted.hpp"
#include "core/rng.hpp"
#include "gen/gadgets.hpp"
#include "gen/random_instances.hpp"

namespace abt::busy {
namespace {

using core::BusySchedule;
using core::ContinuousInstance;

void expect_feasible(const ContinuousInstance& inst, const BusySchedule& s,
                     const char* label) {
  std::string why;
  EXPECT_TRUE(core::check_busy_schedule(inst, s, &why)) << label << ": " << why;
}

TEST(FirstFit, SingleMachineWhenEverythingFits) {
  const ContinuousInstance inst({{0, 1, 1}, {0.5, 1.5, 1}, {2, 3, 1}}, 3);
  const BusySchedule s = first_fit(inst);
  expect_feasible(inst, s, "first_fit");
  EXPECT_EQ(s.machine_count(), 1);
}

TEST(FirstFit, OpensSecondMachineOnOverflow) {
  const ContinuousInstance inst({{0, 1, 1}, {0, 1, 1}, {0, 1, 1}}, 2);
  const BusySchedule s = first_fit(inst);
  expect_feasible(inst, s, "first_fit");
  EXPECT_EQ(s.machine_count(), 2);
  EXPECT_NEAR(core::busy_cost(inst, s), 2.0, 1e-9);
}

TEST(GreedyTracking, BundlesGTracksPerMachine) {
  // Four disjoint chains; g = 2 -> tracks pair up into ceil(k/g) machines.
  const ContinuousInstance inst(
      {{0, 3, 3}, {0, 2, 2}, {0, 1.5, 1.5}, {0, 1, 1}}, 2);
  GreedyTrackingTrace trace;
  const BusySchedule s = greedy_tracking(inst, &trace);
  expect_feasible(inst, s, "greedy_tracking");
  // All four jobs overlap at time 0, so each is its own track.
  EXPECT_EQ(trace.tracks.size(), 4u);
  EXPECT_EQ(s.machine_count(), 2);
  // Tracks come out longest-first (greedy).
  for (std::size_t i = 1; i < trace.tracks.size(); ++i) {
    double prev = 0;
    double cur = 0;
    for (auto j : trace.tracks[i - 1]) prev += inst.job(j).length;
    for (auto j : trace.tracks[i]) cur += inst.job(j).length;
    EXPECT_GE(prev, cur - 1e-9);
  }
}

TEST(GreedyTracking, Fig1ExampleMatchesOptimal) {
  const ContinuousInstance inst = gen::fig1_example();
  const core::BusySchedule exact =
      solve_exact_busy(WeightedInstance::with_unit_widths(inst)).schedule;
  EXPECT_NEAR(core::busy_cost(inst, exact), 6.0, 1e-9)
      << "Fig 1 optimum uses two machines of busy time 3";
  const BusySchedule s = greedy_tracking(inst);
  expect_feasible(inst, s, "greedy_tracking");
  EXPECT_LE(core::busy_cost(inst, s), 3 * 6.0 + 1e-9);
}

TEST(TwoTrackPeeling, ReproducesFig8TightExample) {
  const double eps = 0.05;
  const double eps_prime = 0.02;
  const ContinuousInstance inst = gen::fig8_instance(eps, eps_prime);
  PeelingTrace trace;
  const BusySchedule s = two_track_peeling(inst, &trace);
  expect_feasible(inst, s, "two_track_peeling");
  const double cost = core::busy_cost(inst, s);
  const core::BusySchedule exact =
      solve_exact_busy(WeightedInstance::with_unit_widths(inst)).schedule;
  const double opt = core::busy_cost(inst, exact);
  EXPECT_NEAR(opt, 1 + eps, 1e-9) << "Fig 8 optimum is 1 + eps";
  EXPECT_NEAR(cost, 2 + eps, 0.05) << "algorithm output approaches 2 OPT";
}

TEST(TwoTrackPeeling, LevelsChargeTheDemandProfile) {
  core::Rng rng(31);
  gen::ContinuousParams params;
  params.num_jobs = 30;
  params.capacity = 3;
  params.horizon = 25;
  const ContinuousInstance inst = gen::random_continuous(rng, params);
  PeelingTrace trace;
  const BusySchedule s = two_track_peeling(inst, &trace);
  expect_feasible(inst, s, "two_track_peeling");

  // Level l's span must sit inside {t : raw demand >= l+1}.
  const auto runs = inst.forced_intervals();
  for (std::size_t l = 0; l < trace.levels.size(); ++l) {
    for (core::JobId j : trace.levels[l]) {
      const double probe = inst.job(j).release;
      int raw = 0;
      for (const auto& iv : runs) {
        if (iv.lo <= probe && probe < iv.hi) ++raw;
      }
      EXPECT_GE(raw, static_cast<int>(l) + 1)
          << "level " << l << " sticks out of its demand layer";
    }
  }
}

/// Property sweep: all three algorithms produce feasible schedules within
/// their proven factors of the best lower bound, and respect each other's
/// proven ordering on worst cases.
struct SweepParam {
  int seed;
  int capacity;
};

class IntervalAlgos : public ::testing::TestWithParam<SweepParam> {};

TEST_P(IntervalAlgos, FactorsAgainstLowerBoundsAndExact) {
  const auto [seed, capacity] = GetParam();
  core::Rng rng(static_cast<std::uint64_t>(seed) * 40961ULL + 7);
  for (int trial = 0; trial < 6; ++trial) {
    gen::ContinuousParams params;
    params.num_jobs = static_cast<int>(rng.uniform_int(2, 9));
    params.capacity = capacity;
    params.horizon = 12;
    const ContinuousInstance inst = gen::random_continuous(rng, params);
    const core::BusySchedule exact =
        solve_exact_busy(WeightedInstance::with_unit_widths(inst)).schedule;
    const double opt = core::busy_cost(inst, exact);
    const BusyLowerBounds lb = busy_lower_bounds(inst);
    EXPECT_LE(lb.best(), opt + 1e-6);

    const BusySchedule ff = first_fit(inst);
    const BusySchedule gt = greedy_tracking(inst);
    const BusySchedule pe = two_track_peeling(inst);
    const BusySchedule pa =
        two_track_peeling(inst, nullptr, PairSplit::kParity);
    expect_feasible(inst, ff, "first_fit");
    expect_feasible(inst, gt, "greedy_tracking");
    expect_feasible(inst, pe, "two_track_peeling");
    expect_feasible(inst, pa, "two_track_peeling/parity");

    EXPECT_LE(core::busy_cost(inst, ff), 4 * opt + 1e-6) << "FIRSTFIT is 4-approx";
    EXPECT_LE(core::busy_cost(inst, gt), 3 * opt + 1e-6)
        << "GREEDYTRACKING is 3-approx (Theorem 5)";
    EXPECT_LE(core::busy_cost(inst, pe),
              2 * DemandProfile(inst).cost() + 1e-6)
        << "TwoTrackPeeling charges the profile at most twice (Theorem 3)";
    EXPECT_LE(core::busy_cost(inst, pa),
              2 * DemandProfile(inst).cost() + 1e-6)
        << "the parity split satisfies the same charging bound";
    EXPECT_GE(core::busy_cost(inst, ff), opt - 1e-6);
    EXPECT_GE(core::busy_cost(inst, gt), opt - 1e-6);
    EXPECT_GE(core::busy_cost(inst, pe), opt - 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IntervalAlgos,
    ::testing::Values(SweepParam{1, 1}, SweepParam{2, 2}, SweepParam{3, 2},
                      SweepParam{4, 3}, SweepParam{5, 3}, SweepParam{6, 4}));

/// Clique, proper and laminar families (the special cases of section 1 and
/// Khandekar et al.) also stay within the proven factors.
TEST(IntervalAlgos, SpecialFamiliesStayFeasibleAndBounded) {
  core::Rng rng(777);
  for (int trial = 0; trial < 5; ++trial) {
    gen::ContinuousParams params;
    params.num_jobs = 10;
    params.capacity = 3;
    params.horizon = 20;
    for (const auto& inst :
         {gen::random_clique(rng, params), gen::random_proper(rng, params),
          gen::random_laminar(rng, params)}) {
      const BusyLowerBounds lb = busy_lower_bounds(inst);
      for (const auto& sched :
           {first_fit(inst), greedy_tracking(inst), two_track_peeling(inst)}) {
        std::string why;
        EXPECT_TRUE(core::check_busy_schedule(inst, sched, &why)) << why;
        EXPECT_GE(core::busy_cost(inst, sched), lb.best() - 1e-6);
      }
    }
  }
}

}  // namespace
}  // namespace abt::busy
