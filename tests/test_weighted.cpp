#include "busy/weighted.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "busy/first_fit.hpp"
#include "core/rng.hpp"
#include "core/run_context.hpp"
#include "core/solver.hpp"
#include "engine/builtin_solvers.hpp"
#include "engine/runner.hpp"
#include "engine/scratch.hpp"
#include "gen/extended_instances.hpp"
#include "gen/random_instances.hpp"
#include "weighted_oracle.hpp"

namespace abt::busy {
namespace {

using core::ContinuousJob;

WeightedInstance make(std::vector<std::tuple<double, double, int>> spec,
                      int g) {
  std::vector<WeightedJob> jobs;
  for (const auto& [lo, hi, w] : spec) {
    jobs.push_back({{lo, hi, hi - lo}, w});
  }
  return WeightedInstance(std::move(jobs), g);
}

TEST(Weighted, StructuralValidation) {
  std::string why;
  EXPECT_FALSE(make({{0, 1, 5}}, 4).structurally_valid(&why))
      << "width above g";
  EXPECT_FALSE(make({{0, 1, 0}}, 4).structurally_valid());
  EXPECT_TRUE(make({{0, 1, 4}}, 4).structurally_valid());
  // A flexible job whose length rounds away at its release crashed the
  // weighted-flexible g = infinity DP.
  const WeightedInstance vanishing({{{1, 1.5, 1e-20}, 1}}, 2);
  EXPECT_FALSE(vanishing.structurally_valid(&why));
  EXPECT_NE(why.find("length vanishes"), std::string::npos) << why;
}

TEST(Weighted, MassBoundWeighsByWidth) {
  const auto inst = make({{0, 2, 3}, {0, 2, 1}}, 4);
  EXPECT_DOUBLE_EQ(inst.mass_lower_bound(), (3 * 2 + 1 * 2) / 4.0);
  EXPECT_DOUBLE_EQ(inst.span_lower_bound(), 2.0);
}

TEST(Weighted, CheckerEnforcesCumulativeWidth) {
  const auto inst = make({{0, 1, 2}, {0, 1, 2}, {0, 1, 1}}, 4);
  core::BusySchedule sched;
  sched.placements = {{0, 0.0}, {0, 0.0}, {0, 0.0}};
  EXPECT_FALSE(check_weighted_schedule(inst, sched)) << "width 5 > 4";
  sched.placements = {{0, 0.0}, {0, 0.0}, {1, 0.0}};
  std::string why;
  EXPECT_TRUE(check_weighted_schedule(inst, sched, &why)) << why;
}

/// With no eps shrink, a run that closes at t and runs that open at t
/// meet: the sweep must close first, then judge the width at t once every
/// run opening there is in.
TEST(Weighted, CheckerClosesRunsBeforeOpeningAtTheSameTime) {
  core::BusySchedule sched;
  sched.placements = {{0, 0.0}, {0, 1.0}, {0, 1.0}};
  std::string why;
  EXPECT_TRUE(check_weighted_schedule(
      make({{0, 1, 2}, {1, 2, 1}, {1, 2, 1}}, 2), sched, &why, 0.0))
      << why;
  EXPECT_FALSE(check_weighted_schedule(
      make({{0, 1, 2}, {1, 2, 2}, {1, 2, 1}}, 2), sched, &why, 0.0));
  EXPECT_EQ(why, "machine 0 exceeds width capacity");
}

TEST(Weighted, UnitWidthFirstFitMatchesPlainFirstFit) {
  core::Rng rng(11);
  gen::ContinuousParams params;
  params.num_jobs = 20;
  params.capacity = 3;
  const auto plain = gen::random_continuous(rng, params);
  std::vector<WeightedJob> jobs;
  for (const auto& j : plain.jobs()) jobs.push_back({j, 1});
  const WeightedInstance weighted(std::move(jobs), plain.capacity());

  const double plain_cost = core::busy_cost(plain, first_fit(plain));
  const auto wsched = weighted_first_fit(weighted);
  EXPECT_TRUE(check_weighted_schedule(weighted, wsched));
  EXPECT_NEAR(core::busy_cost(plain, wsched), plain_cost, 1e-9)
      << "width-1 model must reduce to the standard one";
}

TEST(Weighted, WideJobsNeverShareCapacity) {
  // Three overlapping wide jobs (w = 3 of g = 4): three machines.
  const auto inst = make({{0, 2, 3}, {0, 2, 3}, {0, 2, 3}}, 4);
  const auto sched = narrow_wide_split(inst);
  EXPECT_TRUE(check_weighted_schedule(inst, sched));
  EXPECT_EQ(sched.machine_count(), 3);
}

TEST(Weighted, DisjointWideJobsShareAMachine) {
  const auto inst = make({{0, 1, 3}, {2, 3, 3}, {4, 5, 3}}, 4);
  const auto sched = narrow_wide_split(inst);
  EXPECT_TRUE(check_weighted_schedule(inst, sched));
  EXPECT_EQ(sched.machine_count(), 1);
}

TEST(Weighted, NarrowJobsPackByWidth) {
  // Four overlapping narrow jobs of width 2, g = 4: two per machine.
  const auto inst = make({{0, 1, 2}, {0, 1, 2}, {0, 1, 2}, {0, 1, 2}}, 4);
  const auto sched = narrow_wide_split(inst);
  EXPECT_TRUE(check_weighted_schedule(inst, sched));
  EXPECT_EQ(sched.machine_count(), 2);
}

TEST(Weighted, ExactBeatsOrMatchesHeuristics) {
  const auto inst =
      make({{0, 2, 2}, {1, 3, 2}, {0, 3, 1}, {2, 4, 3}, {0, 1, 1}}, 4);
  const core::BusySchedule exact = solve_exact_busy(inst).schedule;
  EXPECT_TRUE(check_weighted_schedule(inst, exact));
  const double opt = core::busy_cost(inst.unweighted(), exact);
  const double ff = core::busy_cost(inst.unweighted(), weighted_first_fit(inst));
  const double nw = core::busy_cost(inst.unweighted(), narrow_wide_split(inst));
  EXPECT_LE(opt, ff + 1e-9);
  EXPECT_LE(opt, nw + 1e-9);
  EXPECT_GE(opt, std::max(inst.mass_lower_bound(), 0.0) - 1e-9);
}

/// Property (Khandekar et al. [9]): the narrow/wide split stays within 5x
/// the exact optimum; width-aware FIRSTFIT stays feasible; both respect the
/// weighted lower bounds.
class WeightedRandom : public ::testing::TestWithParam<int> {};

TEST_P(WeightedRandom, FactorsAgainstExactOnSmallInstances) {
  core::Rng rng(static_cast<std::uint64_t>(GetParam()) * 35742ULL + 3);
  for (int trial = 0; trial < 8; ++trial) {
    const int g = static_cast<int>(rng.uniform_int(2, 5));
    const int n = static_cast<int>(rng.uniform_int(2, 8));
    std::vector<WeightedJob> jobs;
    for (int i = 0; i < n; ++i) {
      const double len = rng.uniform_real(0.5, 3.0);
      const double lo = rng.uniform_real(0.0, 8.0);
      jobs.push_back({{lo, lo + len, len},
                      static_cast<int>(rng.uniform_int(1, g))});
    }
    const WeightedInstance inst(std::move(jobs), g);
    ASSERT_TRUE(inst.structurally_valid());

    const core::BusySchedule exact = solve_exact_busy(inst).schedule;
    const double opt = core::busy_cost(inst.unweighted(), exact);

    const auto ff = weighted_first_fit(inst);
    const auto nw = narrow_wide_split(inst);
    std::string why;
    EXPECT_TRUE(check_weighted_schedule(inst, ff, &why)) << why;
    EXPECT_TRUE(check_weighted_schedule(inst, nw, &why)) << why;
    EXPECT_LE(core::busy_cost(inst.unweighted(), nw), 5 * opt + 1e-6)
        << "narrow/wide split is 5-approximate";
    EXPECT_GE(core::busy_cost(inst.unweighted(), ff), opt - 1e-6);
    const double lb =
        std::max(inst.mass_lower_bound(), inst.span_lower_bound());
    EXPECT_GE(opt, lb - 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeightedRandom, ::testing::Range(1, 9));

TEST(Weighted, FlexiblePipelineFeasible) {
  core::Rng rng(77);
  for (int trial = 0; trial < 5; ++trial) {
    const int g = 4;
    std::vector<WeightedJob> jobs;
    for (int i = 0; i < 10; ++i) {
      const double len = rng.uniform_real(0.5, 2.0);
      const double lo = rng.uniform_real(0.0, 8.0);
      const double slack = rng.uniform_real(0.0, 2.0);
      jobs.push_back({{lo, lo + len + slack, len},
                      static_cast<int>(rng.uniform_int(1, g))});
    }
    const WeightedInstance inst(std::move(jobs), g);
    const auto sched = schedule_weighted_flexible(inst);
    std::string why;
    EXPECT_TRUE(check_weighted_schedule(inst, sched, &why)) << why;
  }
}

// --- Placement equivalence with the frozen copy-and-rescan heuristics ---
// (tests/oracles/weighted_oracle.hpp). The index-backed driver must
// reproduce the rescan placement for placement, not just in cost.

::testing::AssertionResult same_placements(const core::BusySchedule& got,
                                           const core::BusySchedule& want) {
  if (got.placements.size() != want.placements.size()) {
    return ::testing::AssertionFailure() << "placement count differs";
  }
  for (std::size_t j = 0; j < got.placements.size(); ++j) {
    if (got.placements[j].machine != want.placements[j].machine ||
        got.placements[j].start != want.placements[j].start) {
      return ::testing::AssertionFailure()
             << "job " << j << ": machine " << got.placements[j].machine
             << " start " << got.placements[j].start << ", oracle machine "
             << want.placements[j].machine << " start "
             << want.placements[j].start;
    }
  }
  return ::testing::AssertionSuccess();
}

/// Both interval heuristics against the oracle, plus the checker.
void expect_interval_heuristics_match(const WeightedInstance& inst) {
  const core::BusySchedule ff = weighted_first_fit(inst);
  const core::BusySchedule nw = narrow_wide_split(inst);
  EXPECT_TRUE(same_placements(ff, oracle::weighted_first_fit(inst)))
      << "weighted first fit";
  EXPECT_TRUE(same_placements(nw, oracle::narrow_wide_split(inst)))
      << "narrow/wide split";
  if (inst.structurally_valid()) {
    std::string why;
    EXPECT_TRUE(check_weighted_schedule(inst, ff, &why)) << why;
    EXPECT_TRUE(check_weighted_schedule(inst, nw, &why)) << why;
  }
}

/// Integer endpoints and lengths, so touching runs ([a,b) then [b,c)) and
/// duplicate runs are common rather than measure-zero events.
WeightedInstance lattice_weighted(core::Rng& rng, int n, int g) {
  std::vector<WeightedJob> jobs;
  const int horizon = 4 + n / 3;
  for (int i = 0; i < n; ++i) {
    const double lo = static_cast<double>(rng.uniform_int(0, horizon));
    const double len = static_cast<double>(rng.uniform_int(1, 4));
    jobs.push_back(
        {{lo, lo + len, len}, static_cast<int>(rng.uniform_int(1, g))});
  }
  return WeightedInstance(std::move(jobs), g);
}

/// Seeds per size: many for the service-sized shapes, a few at the
/// campaign's n = 1024 where the rescan oracle alone costs ~0.1 s.
int seeds_for(int n) {
  if (n <= 48) return 40;
  if (n <= 100) return 12;
  if (n <= 300) return 6;
  return 2;
}

TEST(WeightedEquivalence, IntervalHeuristicsMatchTheRescanOracle) {
  for (const int n : {1, 2, 5, 12, 24, 48, 100, 300, 1024}) {
    for (const int g : {1, 2, 3, 8}) {
      for (int seed = 0; seed < seeds_for(n); ++seed) {
        SCOPED_TRACE("n=" + std::to_string(n) + " g=" + std::to_string(g) +
                     " seed=" + std::to_string(seed));
        core::Rng rng(static_cast<std::uint64_t>(seed) * 7919ULL +
                      static_cast<std::uint64_t>(n * 31 + g));
        gen::WeightedParams params;
        params.num_jobs = n;
        params.capacity = g;
        params.horizon = 10.0 + n / 4.0;  // the `weighted` scenario's density
        expect_interval_heuristics_match(gen::random_weighted(rng, params));
        expect_interval_heuristics_match(lattice_weighted(rng, n, g));
      }
    }
  }
}

TEST(WeightedEquivalence, FlexibleMatchesTheRescanOracle) {
  for (const int n : {1, 2, 5, 12, 24, 48, 100, 300}) {
    for (const int g : {1, 2, 3, 8}) {
      for (int seed = 0; seed < 10; ++seed) {
        SCOPED_TRACE("n=" + std::to_string(n) + " g=" + std::to_string(g) +
                     " seed=" + std::to_string(seed));
        core::Rng rng(static_cast<std::uint64_t>(seed) * 104729ULL +
                      static_cast<std::uint64_t>(n * 31 + g));
        gen::WeightedParams params;
        params.num_jobs = n;
        params.capacity = g;
        params.horizon = 10.0 + n / 4.0;
        params.max_slack = 1.0;
        const WeightedInstance inst = gen::random_weighted(rng, params);
        const core::BusySchedule sched = schedule_weighted_flexible(inst);
        EXPECT_TRUE(
            same_placements(sched, oracle::schedule_weighted_flexible(inst)));
        std::string why;
        EXPECT_TRUE(check_weighted_schedule(inst, sched, &why)) << why;
      }
    }
  }
}

std::vector<int> machines_of(const core::BusySchedule& sched) {
  std::vector<int> out;
  for (const core::Placement& p : sched.placements) out.push_back(p.machine);
  return out;
}

TEST(WeightedEquivalence, TouchingRunsShareAMachineAtFullWidth) {
  // [0,2) then [2,3) then [3,4), each at the full width g: half-open runs
  // never overlap, so one machine carries all three.
  const auto inst = make({{0, 2, 3}, {2, 3, 3}, {3, 4, 3}}, 3);
  expect_interval_heuristics_match(inst);
  EXPECT_EQ(machines_of(weighted_first_fit(inst)), (std::vector<int>{0, 0, 0}));
}

TEST(WeightedEquivalence, DuplicateRunsStackUpToCapacity) {
  const auto inst = make({{0, 2, 2}, {0, 2, 2}, {0, 2, 2}, {0, 2, 1}}, 4);
  expect_interval_heuristics_match(inst);
  EXPECT_EQ(machines_of(weighted_first_fit(inst)),
            (std::vector<int>{0, 0, 1, 1}));
}

TEST(WeightedEquivalence, FullWidthJobExcludesAnyOverlap) {
  // Width == g fills the machine over its run; a unit job overlapping it
  // by a sliver opens a second machine, one just past it does not.
  const auto inst = make({{0, 4, 4}, {3.5, 4.5, 1}, {4, 4.75, 1}}, 4);
  expect_interval_heuristics_match(inst);
  EXPECT_EQ(machines_of(weighted_first_fit(inst)), (std::vector<int>{0, 1, 0}));
}

TEST(WeightedEquivalence, UnitCapacity) {
  const auto inst = make({{0, 3, 1}, {1, 2, 1}, {3, 5, 1}, {2, 3, 1}}, 1);
  expect_interval_heuristics_match(inst);
  EXPECT_EQ(machines_of(weighted_first_fit(inst)),
            (std::vector<int>{0, 1, 0, 1}));
}

TEST(WeightedEquivalence, WideLaneCountsEveryWideJobAsOneUnit) {
  // Wide (w > g/2) jobs pack with capacity 1 and unit widths: overlapping
  // ones split, disjoint and touching ones share; narrow jobs start on the
  // machines after the wide lane's.
  const auto inst =
      make({{0, 3, 3}, {1, 2.5, 4}, {3, 5, 3}, {0, 1, 2}, {0, 1, 2}}, 4);
  expect_interval_heuristics_match(inst);
  EXPECT_EQ(machines_of(narrow_wide_split(inst)),
            (std::vector<int>{0, 1, 0, 2, 2}));
}

TEST(WeightedEquivalence, OverWidthJobsEachOpenAMachine) {
  // Built through the direct API (the parsers reject width > g): a job
  // wider than g fits nowhere — not even on machine 0, which is idle
  // across both later runs — so each one opens a machine of its own.
  const auto inst = make({{0, 3, 1}, {4, 6, 5}, {7, 8, 3}}, 2);
  ASSERT_FALSE(inst.structurally_valid());
  expect_interval_heuristics_match(inst);
  EXPECT_EQ(machines_of(weighted_first_fit(inst)),
            (std::vector<int>{0, 1, 2}));
}

TEST(WeightedEquivalence, OverWidthJobSealsItsMachine) {
  // A machine holding an over-width job exceeds g forever, so the rescan
  // never admits anything else to it — not even a disjoint job that would
  // find that machine idle.
  const auto inst = make({{0, 3, 5}, {4, 6, 1}, {4, 5, 1}, {7, 7.5, 1}}, 2);
  expect_interval_heuristics_match(inst);
  EXPECT_EQ(machines_of(weighted_first_fit(inst)),
            (std::vector<int>{0, 1, 1, 1}));
}

TEST(WeightedEquivalence, EmptyRunDrawsNoWidth) {
  // A zero-length job (direct API only) occupies no time, so the rescan
  // accepts it on the first machine that is not over-full — whatever its
  // width — and it seals nothing.
  std::vector<WeightedJob> jobs = {
      {{0, 2, 2}, 5}, {{0, 1, 1}, 1}, {{1, 1, 0}, 9}, {{5, 6, 1}, 1}};
  const WeightedInstance inst(std::move(jobs), 2);
  expect_interval_heuristics_match(inst);
  EXPECT_EQ(machines_of(weighted_first_fit(inst)),
            (std::vector<int>{0, 1, 1, 1}));
}

/// busy/weighted-flexible honours its RunContext: under a pre-cancelled
/// context the g = infinity DP stops, the push-left fallback is still a
/// feasible weighted schedule, and the row reports timed_out, dp_exact 0.
TEST(Weighted, FlexibleCancelledContextKeepsTheFallbackSchedule) {
  engine::ScenarioSpec spec;
  spec.name = "weighted-flexible";
  spec.n = 1024;
  spec.g = 8;
  spec.seed = 5;
  const auto inst = engine::make_scenario(spec);
  ASSERT_TRUE(inst.has_value());
  const WeightedInstance& winst = inst->weighted;
  core::CancelSource source;
  source.cancel();
  core::RunContext ctx;
  ctx.set_cancel_token(source.token());

  UnboundedOptions options;
  options.context = &ctx;
  const UnboundedSolution dp = solve_unbounded(winst.unweighted(), options);
  EXPECT_FALSE(dp.exact);
  EXPECT_TRUE(dp.timed_out);
  std::string why;
  EXPECT_TRUE(check_weighted_schedule(
      winst, schedule_weighted_flexible(winst, dp), &why))
      << why;

  // The registered solver, run directly (the registry declines a cancelled
  // batch up front), with the worker's memo holding another instance.
  spec.n = 8;
  const auto other = engine::make_scenario(spec);
  ASSERT_TRUE(other.has_value());
  ASSERT_TRUE(
      engine::shared_unbounded(other->weighted.unweighted(), core::RunContext{})
          .exact);
  const core::Solver* solver =
      engine::shared_registry().find("busy/weighted-flexible");
  ASSERT_NE(solver, nullptr);
  const core::Solution sol = solver->run(*inst, ctx);
  ASSERT_TRUE(sol.ok);
  ASSERT_TRUE(sol.busy.has_value());
  EXPECT_TRUE(check_weighted_schedule(winst, *sol.busy, &why)) << why;
  EXPECT_TRUE(sol.timed_out);
  EXPECT_EQ(sol.stat("dp_exact", 1.0), 0.0);
}

}  // namespace
}  // namespace abt::busy
