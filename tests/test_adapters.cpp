// The extended instance kinds: weighted busy time and multi-window active
// time as first-class registry citizens — kind gating, their own
// checkers, guarantee factors against their own exact oracles, and the
// feasible-by-construction extended generators.
#include <gtest/gtest.h>

#include <string>

#include "active/multi_window.hpp"
#include "busy/weighted.hpp"
#include "core/rng.hpp"
#include "engine/builtin_solvers.hpp"
#include "engine/runner.hpp"
#include "gen/extended_instances.hpp"

namespace abt {
namespace {

using core::Family;
using core::InstanceKind;
using core::ProblemInstance;
using core::Solution;

constexpr double kEps = 1e-6;

ProblemInstance weighted_instance(std::uint64_t seed, int n, int g,
                                  double slack = 0.0) {
  core::Rng rng(seed);
  gen::WeightedParams params;
  params.num_jobs = n;
  params.capacity = g;
  params.horizon = 12.0;
  params.max_slack = slack;
  return core::make_instance(gen::random_weighted(rng, params));
}

/// The runner's model lower bound, as a solver-free run derives it.
double model_bound(const ProblemInstance& inst) {
  const engine::LowerBound lb = engine::derive_lower_bound(inst, {}, {});
  EXPECT_EQ(lb.kind, "model");
  return lb.value;
}

ProblemInstance multi_window_instance(std::uint64_t seed, int n, int g) {
  core::Rng rng(seed);
  gen::MultiWindowParams params;
  params.num_jobs = n;
  params.capacity = g;
  // Keep candidate-slot counts small enough for the exact oracle's gate.
  params.max_length = 2;
  params.window_slack = 1;
  return core::make_instance(gen::random_multi_window(rng, params));
}

TEST(Adapters, ExtendedInstancesCarryKindAndExtension) {
  const ProblemInstance w = weighted_instance(3, 6, 4);
  EXPECT_EQ(w.family, Family::kBusy);
  EXPECT_EQ(w.kind, InstanceKind::kWeighted);
  EXPECT_EQ(w.weighted.size(), 6);
  EXPECT_EQ(w.weighted.capacity(), 4);
  EXPECT_GT(model_bound(w), 0.0);

  const ProblemInstance m = multi_window_instance(3, 5, 2);
  EXPECT_EQ(m.family, Family::kActive);
  EXPECT_EQ(m.kind, InstanceKind::kMultiWindow);
  EXPECT_EQ(m.multi_window.size(), 5);

  EXPECT_EQ(core::instance_kind_name(InstanceKind::kStandard), "standard");
  EXPECT_EQ(core::instance_kind_name(InstanceKind::kWeighted), "weighted");
  EXPECT_EQ(core::instance_kind_name(InstanceKind::kMultiWindow),
            "multi-window");
}

TEST(Adapters, RegistryListsTheExtendedSolvers) {
  const core::SolverRegistry& registry = engine::shared_registry();
  for (const char* name :
       {"busy/weighted-first-fit", "busy/weighted-narrow-wide",
        "busy/weighted-exact", "busy/weighted-flexible",
        "active/multi-window-minimal", "active/multi-window-exact"}) {
    const core::Solver* solver = registry.find(name);
    ASSERT_NE(solver, nullptr) << name;
    EXPECT_NE(solver->kind, InstanceKind::kStandard) << name;
    EXPECT_TRUE(static_cast<bool>(solver->check))
        << name << " must register its own checker";
  }
}

TEST(Adapters, KindGateKeepsStandardAndExtendedSolversApart) {
  const core::SolverRegistry& registry = engine::shared_registry();
  const ProblemInstance weighted = weighted_instance(7, 6, 3);

  // Unrestricted run on a weighted instance: only weighted solvers fire.
  for (const Solution& sol :
       engine::run_instance(registry, weighted).solutions) {
    EXPECT_NE(sol.solver.find("weighted"), std::string::npos) << sol.solver;
  }
  // A standard busy solver explicitly requested on a weighted instance is
  // declined (not crashed, not silently run on the empty carrier).
  const Solution declined = registry.run("busy/first-fit", weighted);
  EXPECT_FALSE(declined.ok);
  EXPECT_NE(declined.message.find("kind"), std::string::npos);
  // And the other direction.
  const ProblemInstance standard = core::make_instance(
      core::ContinuousInstance({{0.0, 2.0, 2.0}, {1.0, 3.0, 2.0}}, 2));
  const Solution wrong_kind = registry.run("busy/weighted-exact", standard);
  EXPECT_FALSE(wrong_kind.ok);
}

TEST(Adapters, AdapterCheckerRejectsOverloadedSchedules) {
  // A deliberately broken solver that piles every job onto machine 0 at
  // its release: the registration's own checker must veto it whenever the
  // cumulative width exceeds g.
  core::SolverRegistry registry;
  core::Solver bogus;
  bogus.name = "busy/weighted-bogus";
  bogus.family = Family::kBusy;
  bogus.kind = InstanceKind::kWeighted;
  bogus.guarantee = "none";
  bogus.check = [](const ProblemInstance& inst, const Solution& sol,
                   std::string* why) {
    return sol.busy.has_value() &&
           busy::check_weighted_schedule(inst.weighted, *sol.busy, why);
  };
  bogus.run = [](const ProblemInstance& inst, const core::RunContext&) {
    core::BusySchedule sched;
    for (const core::WeightedJob& wj : inst.weighted.jobs()) {
      sched.placements.push_back({0, wj.job.release});
    }
    Solution sol;
    sol.ok = true;
    sol.cost = 0.0;
    sol.busy = std::move(sched);
    return sol;
  };
  registry.add(std::move(bogus));

  // Three width-2 jobs overlapping at time 1 with g = 3: one machine
  // cannot hold them.
  const core::WeightedInstance overloaded(
      {{{0.0, 2.0, 2.0}, 2}, {{0.5, 2.5, 2.0}, 2}, {{0.8, 2.8, 2.0}, 2}}, 3);
  const Solution sol =
      registry.run("busy/weighted-bogus", core::make_instance(overloaded));
  EXPECT_TRUE(sol.ok);
  EXPECT_FALSE(sol.feasible);
  EXPECT_FALSE(sol.message.empty());
}

class AdapterGuarantees : public ::testing::TestWithParam<int> {};

TEST_P(AdapterGuarantees, WeightedSolversRespectFactorsAgainstExact) {
  const core::SolverRegistry& registry = engine::shared_registry();
  core::Rng rng(static_cast<std::uint64_t>(GetParam()) * 6367ULL);
  for (int trial = 0; trial < 4; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(4, 9));
    const int g = static_cast<int>(rng.uniform_int(2, 5));
    const ProblemInstance inst =
        weighted_instance(rng.uniform_int(1, 1 << 20), n, g);

    const Solution exact = registry.run("busy/weighted-exact", inst);
    ASSERT_TRUE(exact.ok && exact.feasible) << exact.message;
    ASSERT_TRUE(exact.exact);
    const double opt = exact.cost;
    EXPECT_GE(opt, model_bound(inst) - kEps);

    for (const Solution& sol :
         engine::run_instance(registry, inst).solutions) {
      ASSERT_TRUE(sol.ok) << sol.solver << ": " << sol.message;
      EXPECT_TRUE(sol.feasible) << sol.solver << ": " << sol.message;
      EXPECT_GE(sol.cost, opt - kEps)
          << sol.solver << " beat the exact optimum";
      const core::Solver* solver = registry.find(sol.solver);
      ASSERT_NE(solver, nullptr);
      if (solver->guarantee_factor > 0.0) {
        EXPECT_LE(sol.cost, solver->guarantee_factor * opt + kEps)
            << sol.solver << " violates its declared guarantee";
      }
    }
  }
}

TEST_P(AdapterGuarantees, WeightedFlexiblePipelineStaysFeasible) {
  const core::SolverRegistry& registry = engine::shared_registry();
  const ProblemInstance inst = weighted_instance(
      static_cast<std::uint64_t>(GetParam()) * 131ULL + 7, 8, 4, 1.5);
  ASSERT_EQ(inst.kind, InstanceKind::kWeighted);
  ASSERT_FALSE(inst.weighted.all_interval_jobs(1e-6));
  const Solution sol = registry.run("busy/weighted-flexible", inst);
  ASSERT_TRUE(sol.ok) << sol.message;
  EXPECT_TRUE(sol.feasible) << sol.message;
  EXPECT_GE(sol.cost, inst.weighted.mass_lower_bound() - kEps);
}

TEST_P(AdapterGuarantees, MultiWindowGeneratorIsFeasibleAndExactMatches) {
  const core::SolverRegistry& registry = engine::shared_registry();
  core::Rng rng(static_cast<std::uint64_t>(GetParam()) * 90001ULL);
  for (int trial = 0; trial < 3; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(3, 6));
    const int g = static_cast<int>(rng.uniform_int(1, 3));
    const ProblemInstance inst =
        multi_window_instance(rng.uniform_int(1, 1 << 20), n, g);
    const core::MultiWindowInstance& mw = inst.multi_window;
    ASSERT_TRUE(mw.structurally_valid());

    // Feasible by construction: the minimal-feasible heuristic must find a
    // schedule, and the registry must validate it.
    const Solution minimal =
        registry.run("active/multi-window-minimal", inst);
    ASSERT_TRUE(minimal.ok) << minimal.message;
    EXPECT_TRUE(minimal.feasible) << minimal.message;

    const Solution exact = registry.run("active/multi-window-exact", inst);
    if (!exact.ok) continue;  // candidate-slot gate may decline
    EXPECT_TRUE(exact.feasible) << exact.message;
    EXPECT_TRUE(exact.exact);
    EXPECT_LE(exact.cost, minimal.cost + kEps);
    EXPECT_EQ(static_cast<long>(exact.cost), active::mw_brute_force_opt(mw));
    EXPECT_GE(exact.cost, model_bound(inst) - kEps);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdapterGuarantees, ::testing::Range(1, 6));

TEST(Adapters, RunInstanceDerivesExtendedLowerBounds) {
  // With the exact oracle in the subset, the bound is its certificate.
  const ProblemInstance inst = weighted_instance(11, 6, 3);
  engine::RunOptions all;
  const engine::RunReport certified =
      engine::run_instance(engine::shared_registry(), inst, all);
  EXPECT_EQ(certified.lower_bound.kind, "exact");

  // Restricted to heuristics, the model's own combinatorial bound steps in.
  engine::RunOptions heuristics_only;
  heuristics_only.solvers = {"busy/weighted-first-fit"};
  const engine::RunReport modeled = engine::run_instance(
      engine::shared_registry(), inst, heuristics_only);
  EXPECT_EQ(modeled.lower_bound.kind, "model");
  EXPECT_GT(modeled.lower_bound.value, 0.0);
}

TEST(Adapters, GeneratorsAreSeedDeterministic) {
  for (int seed = 1; seed <= 3; ++seed) {
    const ProblemInstance a =
        weighted_instance(static_cast<std::uint64_t>(seed), 8, 4);
    const ProblemInstance b =
        weighted_instance(static_cast<std::uint64_t>(seed), 8, 4);
    const core::WeightedInstance& wa = a.weighted;
    const core::WeightedInstance& wb = b.weighted;
    ASSERT_EQ(wa.size(), wb.size());
    for (int j = 0; j < wa.size(); ++j) {
      EXPECT_EQ(wa.job(j).job.release, wb.job(j).job.release);
      EXPECT_EQ(wa.job(j).job.length, wb.job(j).job.length);
      EXPECT_EQ(wa.job(j).width, wb.job(j).width);
    }
  }
}

}  // namespace
}  // namespace abt
