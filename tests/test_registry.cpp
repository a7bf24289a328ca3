// The solver registry and scenario engine: every registered solver, run
// over random slotted + continuous instances, must produce checker-valid
// schedules whose costs respect the solver's declared guarantee against
// the exact / LP lower bounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "busy/lower_bounds.hpp"
#include "core/rng.hpp"
#include "core/solver.hpp"
#include "engine/builtin_solvers.hpp"
#include "engine/runner.hpp"
#include "gen/random_instances.hpp"

namespace abt {
namespace {

using core::Family;
using core::ProblemInstance;
using core::Solution;

constexpr double kEps = 1e-6;

core::ProblemInstance random_interval_instance(core::Rng& rng, int n, int g) {
  gen::ContinuousParams params;
  params.num_jobs = n;
  params.capacity = g;
  params.horizon = 12.0;
  return core::make_instance(gen::random_continuous(rng, params));
}

core::ProblemInstance random_flexible_instance(core::Rng& rng, int n, int g) {
  gen::ContinuousParams params;
  params.num_jobs = n;
  params.capacity = g;
  params.horizon = 14.0;
  params.max_slack = 1.5;
  return core::make_instance(gen::random_continuous(rng, params));
}

core::ProblemInstance random_slotted_instance(core::Rng& rng, int n, int g) {
  gen::SlottedParams params;
  params.num_jobs = n;
  params.capacity = g;
  params.horizon = 12;
  params.max_length = 3;
  params.max_slack = 5;
  return core::make_instance(gen::random_feasible_slotted(rng, params));
}

TEST(Registry, HasTheFullSolverCatalog) {
  const core::SolverRegistry& registry = engine::shared_registry();
  EXPECT_GE(registry.size(), 12u);

  std::set<std::string> names;
  int busy = 0;
  int active = 0;
  for (const core::Solver& solver : registry.all()) {
    EXPECT_TRUE(names.insert(solver.name).second)
        << "duplicate name " << solver.name;
    EXPECT_FALSE(solver.guarantee.empty()) << solver.name;
    (solver.family == Family::kBusy ? busy : active) += 1;
    EXPECT_EQ(registry.find(solver.name), &solver);
  }
  EXPECT_GE(busy, 8);
  EXPECT_GE(active, 4);
  EXPECT_EQ(registry.find("no/such-solver"), nullptr);

  const Solution unknown = registry.run("no/such-solver", ProblemInstance{});
  EXPECT_FALSE(unknown.ok);
}

TEST(Registry, EveryScenarioInstantiatesWithItsFamily) {
  for (const engine::ScenarioInfo& info : engine::scenarios()) {
    engine::ScenarioSpec spec;
    spec.name = info.name;
    spec.n = 8;
    spec.g = 3;
    spec.seed = 7;
    std::string error;
    const auto inst = engine::make_scenario(spec, &error);
    ASSERT_TRUE(inst.has_value()) << info.name << ": " << error;
    EXPECT_EQ(inst->family, info.family) << info.name;
    if (inst->kind == core::InstanceKind::kWeighted) {
      EXPECT_GT(inst->weighted.size(), 0) << info.name;
    } else if (inst->kind == core::InstanceKind::kMultiWindow) {
      EXPECT_GT(inst->multi_window.size(), 0) << info.name;
    } else if (inst->family == Family::kBusy) {
      EXPECT_GT(inst->continuous.size(), 0) << info.name;
    } else {
      EXPECT_GT(inst->slotted.size(), 0) << info.name;
    }
  }
  engine::ScenarioSpec bogus;
  bogus.name = "no-such-scenario";
  std::string error;
  EXPECT_FALSE(engine::make_scenario(bogus, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(Registry, ScenarioRejectsCapacityBelowOne) {
  for (const char* name : {"interval", "slotted", "multi-window"}) {
    for (const int g : {0, -2}) {
      engine::ScenarioSpec spec;
      spec.name = name;
      spec.n = 4;
      spec.g = g;
      std::string error;
      EXPECT_FALSE(engine::make_scenario(spec, &error).has_value()) << name;
      EXPECT_EQ(error, "g must be >= 1 (got " + std::to_string(g) + ")");
    }
  }
}

TEST(Registry, ScenarioRejectsNegativeJobCount) {
  for (const char* name : {"slotted", "interval", "weighted"}) {
    engine::ScenarioSpec spec;
    spec.name = name;
    spec.n = -3;
    spec.g = 2;
    std::string error;
    EXPECT_FALSE(engine::make_scenario(spec, &error).has_value()) << name;
    EXPECT_EQ(error, "n must be >= 0 (got -3)");
  }
}

TEST(Registry, ScenarioRejectsOutOfRangeEps) {
  struct Case {
    const char* name;
    double eps;
    const char* error;
  };
  // 5e-324 is the smallest subnormal: positive, but eps / 3 underflows.
  for (const Case& c : std::vector<Case>{
           {"fig6", 5.0, "fig6 requires 0 < eps < 1/2 (got 5)"},
           {"fig6", 0.5, "fig6 requires 0 < eps < 1/2 (got 0.5)"},
           {"fig6", 0.0, "fig6 requires 0 < eps < 1/2 (got 0)"},
           {"fig8", 0.0, "fig8 requires 0 < eps < 1 (got 0)"},
           {"fig8", 1.0, "fig8 requires 0 < eps < 1 (got 1)"},
           {"fig8", -0.25, "fig8 requires 0 < eps < 1 (got -0.25)"},
           {"fig8", 5e-324,
            "fig8 requires 0 < eps < 1 (got 4.9406564584124654e-324)"},
           {"fig10", 0.9,
            "fig10 requires 0 < eps < 1/2 (got 0.90000000000000002)"},
           {"fig10", 5e-324,
            "fig10 requires 0 < eps < 1/2 (got 4.9406564584124654e-324)"},
           // In range, but 1 + eps == 1 (fig8) or a later release + eps
           // == release (fig10): a job's run would be empty.
           {"fig8", 1e-20,
            "fig8 eps is too small (got 9.9999999999999995e-21): job 4: "
            "length vanishes at its release (release + length == release)"},
           {"fig10", 3e-16,
            "fig10 eps is too small (got 2.9999999999999999e-16): job 6: "
            "length vanishes at its release (release + length == release)"},
       }) {
    engine::ScenarioSpec spec;
    spec.name = c.name;
    spec.g = 3;
    spec.eps = c.eps;
    std::string error;
    EXPECT_FALSE(engine::make_scenario(spec, &error).has_value()) << c.name;
    EXPECT_EQ(error, c.error);
  }
  // The open ranges' inner edges still generate.
  for (const auto& [name, eps] : std::vector<std::pair<const char*, double>>{
           {"fig6", 0.49}, {"fig8", 0.99}, {"fig10", 0.49}, {"fig8", 1e-9}}) {
    engine::ScenarioSpec spec;
    spec.name = name;
    spec.g = 3;
    spec.eps = eps;
    std::string error;
    EXPECT_TRUE(engine::make_scenario(spec, &error).has_value())
        << name << " eps " << eps << ": " << error;
  }
}

TEST(Registry, ScenarioRejectsNegativeSlackAndHorizon) {
  for (const char* name : {"flexible", "slotted", "interval"}) {
    engine::ScenarioSpec spec;
    spec.name = name;
    spec.slack = -3.0;
    std::string error;
    EXPECT_FALSE(engine::make_scenario(spec, &error).has_value()) << name;
    EXPECT_EQ(error, "slack must be >= 0 (got -3)");
    spec.slack = 0.0;
    spec.horizon = -4.0;
    EXPECT_FALSE(engine::make_scenario(spec, &error).has_value()) << name;
    EXPECT_EQ(error, "horizon must be >= 0 (got -4)");
  }
}

TEST(Registry, ScenarioWithNoJobsIsEmpty) {
  for (const char* name : {"slotted", "slotted-unit", "interval"}) {
    engine::ScenarioSpec spec;
    spec.name = name;
    spec.n = 0;
    spec.g = 2;
    std::string error;
    const auto inst = engine::make_scenario(spec, &error);
    ASSERT_TRUE(inst.has_value()) << name << ": " << error;
    EXPECT_EQ(inst->family == Family::kBusy ? inst->continuous.size()
                                            : inst->slotted.size(),
              0)
        << name;
  }
}

class RegistryGuarantees : public ::testing::TestWithParam<int> {};

TEST_P(RegistryGuarantees, BusySolversRespectGuaranteesOnIntervalInstances) {
  const core::SolverRegistry& registry = engine::shared_registry();
  core::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7717ULL);
  for (int trial = 0; trial < 4; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(4, 10));
    const int g = static_cast<int>(rng.uniform_int(2, 3));
    const ProblemInstance inst = random_interval_instance(rng, n, g);

    const Solution exact = registry.run("busy/exact", inst);
    ASSERT_TRUE(exact.ok && exact.feasible) << exact.message;
    ASSERT_TRUE(exact.exact);
    const double opt = exact.cost;

    for (const core::Solver& solver : registry.all()) {
      if (solver.family != Family::kBusy) continue;
      if (solver.kind != core::InstanceKind::kStandard) continue;
      std::string why;
      if (solver.applicable && !solver.applicable(inst, {}, &why)) continue;
      const Solution sol = registry.run(solver, inst);
      if (!sol.ok) continue;  // dp-unbounded may decline after the fact.
      EXPECT_TRUE(sol.feasible) << solver.name << ": " << sol.message;
      if (sol.preemptive.has_value()) {
        // Preemptive guarantee is against its own lower bound; preemption
        // may legitimately beat the non-preemptive OPT.
        const double lb = sol.stat("lb");
        EXPECT_GT(lb, 0.0) << solver.name;
        EXPECT_GE(sol.cost, lb - kEps) << solver.name;
        EXPECT_LE(sol.cost, solver.guarantee_factor * lb + kEps)
            << solver.name;
        continue;
      }
      EXPECT_GE(sol.cost, opt - kEps)
          << solver.name << " beat the exact optimum";
      if (solver.guarantee_factor > 0.0) {
        EXPECT_LE(sol.cost, solver.guarantee_factor * opt + kEps)
            << solver.name << " violates its declared guarantee";
      }
      if (sol.exact) {
        EXPECT_NEAR(sol.cost, opt, kEps) << solver.name;
      }
    }
  }
}

TEST_P(RegistryGuarantees, BusySolversStayFeasibleOnFlexibleInstances) {
  const core::SolverRegistry& registry = engine::shared_registry();
  core::Rng rng(static_cast<std::uint64_t>(GetParam()) * 15013ULL);
  for (int trial = 0; trial < 4; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(4, 10));
    const int g = static_cast<int>(rng.uniform_int(2, 3));
    const ProblemInstance inst = random_flexible_instance(rng, n, g);
    ASSERT_FALSE(inst.continuous.all_interval_jobs(1e-6));

    const busy::BusyLowerBounds bounds =
        busy::busy_lower_bounds(inst.continuous);
    int ran = 0;
    for (const Solution& sol :
         engine::run_instance(registry, inst).solutions) {
      if (!sol.ok) continue;
      ++ran;
      EXPECT_TRUE(sol.feasible) << sol.solver << ": " << sol.message;
      if (sol.preemptive.has_value()) continue;
      EXPECT_GE(sol.cost, bounds.best() - kEps)
          << sol.solver << " beat the busy-time lower bound";
    }
    EXPECT_GE(ran, 3) << "pipelines + preemptive should all run";
  }
}

TEST_P(RegistryGuarantees, ActiveSolversRespectGuaranteesVsExactAndLp) {
  const core::SolverRegistry& registry = engine::shared_registry();
  core::Rng rng(static_cast<std::uint64_t>(GetParam()) * 91193ULL);
  for (int trial = 0; trial < 4; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(4, 9));
    const int g = static_cast<int>(rng.uniform_int(1, 3));
    const ProblemInstance inst = random_slotted_instance(rng, n, g);

    const Solution exact = registry.run("active/exact", inst);
    ASSERT_TRUE(exact.ok && exact.feasible) << exact.message;
    ASSERT_TRUE(exact.exact);
    const double opt = exact.cost;
    if (opt == 0.0) continue;

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
      const double lp = sol.stat("lp_objective", -1.0);
      if (lp >= 0.0) {
        EXPECT_LE(lp, opt + kEps)
            << "LP relaxation above the integral optimum";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegistryGuarantees, ::testing::Range(1, 5));

TEST(Registry, InfeasibleActiveInstanceIsReportedNotCrashed) {
  // Two rigid 2-slot jobs in the same 2 slots, capacity 1: flow-infeasible.
  const core::SlottedInstance infeasible({{0, 2, 2}, {0, 2, 2}}, 1);
  const ProblemInstance inst = core::make_instance(infeasible);
  for (const Solution& sol :
       engine::run_instance(engine::shared_registry(), inst).solutions) {
    EXPECT_FALSE(sol.ok) << sol.solver;
    EXPECT_FALSE(sol.message.empty()) << sol.solver;
  }
}

TEST(Runner, ReportCarriesLowerBoundAndWriters) {
  engine::ScenarioSpec spec;
  spec.name = "interval";
  spec.n = 10;
  spec.g = 3;
  spec.seed = 11;
  const auto inst = engine::make_scenario(spec);
  ASSERT_TRUE(inst.has_value());

  const engine::RunReport report =
      engine::run_instance(engine::shared_registry(), *inst);
  ASSERT_FALSE(report.solutions.empty());
  EXPECT_GT(report.lower_bound.value, 0.0);
  EXPECT_EQ(report.lower_bound.kind, "exact");  // n=10 is inside the oracle.
  for (const Solution& sol : report.solutions) {
    if (sol.ok && !sol.preemptive.has_value()) {
      EXPECT_GE(sol.cost, report.lower_bound.value - kEps) << sol.solver;
    }
  }

  std::ostringstream table;
  engine::print_report(table, report);
  EXPECT_NE(table.str().find("busy/greedy-tracking"), std::string::npos);

  std::ostringstream csv;
  engine::write_csv(csv, report);
  EXPECT_NE(csv.str().find("solver,cost"), std::string::npos);

  std::ostringstream json;
  engine::write_json(json, report);
  EXPECT_NE(json.str().find("\"solutions\""), std::string::npos);
  EXPECT_NE(json.str().find("\"lower_bound\""), std::string::npos);
  EXPECT_NE(json.str().find("\"feasible\": true"), std::string::npos);
}

TEST(Runner, SlottedLpBoundRoundsUpToAnInteger) {
  // Active costs are integers, so LP1's optimum 28.333 certifies 29.
  engine::ScenarioSpec spec;
  spec.name = "slotted";
  spec.n = 24;
  spec.seed = 2;
  const auto inst = engine::make_scenario(spec);
  ASSERT_TRUE(inst.has_value());
  const engine::RunReport report =
      engine::run_instance(engine::shared_registry(), *inst);
  EXPECT_EQ(report.lower_bound.kind, "LP");
  EXPECT_EQ(report.lower_bound.value, 29.0);
}

TEST(Runner, RoundedLpBoundNeverExceedsAVerifiedCost) {
  const core::SolverRegistry& registry = engine::shared_registry();
  core::Rng rng(20140623ULL);
  int lp_bounds = 0;
  for (int trial = 0; trial < 40; ++trial) {
    engine::ScenarioSpec spec;
    spec.name = "slotted";
    spec.n = static_cast<int>(rng.uniform_int(16, 48));
    spec.g = static_cast<int>(rng.uniform_int(1, 4));
    spec.seed = 500 + static_cast<std::uint64_t>(trial);
    const auto inst = engine::make_scenario(spec);
    ASSERT_TRUE(inst.has_value());
    const engine::RunReport report = engine::run_instance(registry, *inst);
    const engine::LowerBound& lb = report.lower_bound;
    EXPECT_EQ(lb.value, std::ceil(lb.value)) << "trial " << trial;
    if (lb.kind == "LP") lp_bounds += 1;
    for (const Solution& sol : report.solutions) {
      if (sol.ok && sol.feasible) {
        EXPECT_LE(lb.value, sol.cost)
            << "trial " << trial << ": " << lb.kind << " bound above "
            << sol.solver;
      }
    }
  }
  EXPECT_GT(lp_bounds, 0) << "no trial exercised the rounded LP bound";
}

TEST(Runner, SolverSubsetSelectionIsHonored) {
  engine::ScenarioSpec spec;
  spec.name = "slotted";
  spec.n = 6;
  spec.g = 2;
  spec.seed = 3;
  const auto inst = engine::make_scenario(spec);
  ASSERT_TRUE(inst.has_value());

  engine::RunOptions options;
  options.solvers = {"active/lp-rounding", "active/minimal-feasible"};
  const engine::RunReport report =
      engine::run_instance(engine::shared_registry(), *inst, options);
  ASSERT_EQ(report.solutions.size(), 2u);
  EXPECT_EQ(report.solutions[0].solver, "active/minimal-feasible");
  EXPECT_EQ(report.solutions[1].solver, "active/lp-rounding");

  // An explicitly requested solver that cannot run still gets a (declined)
  // row — never a silent drop.
  options.solvers = {"busy/first-fit", "active/lp-rounding"};
  const engine::RunReport mixed =
      engine::run_instance(engine::shared_registry(), *inst, options);
  ASSERT_EQ(mixed.solutions.size(), 2u);
  EXPECT_EQ(mixed.solutions[0].solver, "busy/first-fit");
  EXPECT_FALSE(mixed.solutions[0].ok);
  EXPECT_FALSE(mixed.solutions[0].message.empty());
  EXPECT_TRUE(mixed.solutions[1].ok);

  // Unknown requested names surface as refusal rows, never a silent drop.
  options.solvers = {"active/no-such-solver"};
  const engine::RunReport unknown =
      engine::run_instance(engine::shared_registry(), *inst, options);
  ASSERT_EQ(unknown.solutions.size(), 1u);
  EXPECT_FALSE(unknown.solutions[0].ok);
  EXPECT_EQ(unknown.solutions[0].message, "unknown solver");
}

/// busy/first-fit-release is FIRSTFIT in release order, which is online
/// first fit: both registrations run the one release-order placer, so they
/// agree placement for placement on every interval-job scenario.
TEST(Registry, FirstFitReleaseIsOnlineFirstFit) {
  const core::SolverRegistry& registry = engine::shared_registry();
  std::set<std::string> families;
  for (const engine::ScenarioInfo& info : engine::scenarios()) {
    if (info.family != Family::kBusy) continue;
    for (const int g : {1, 3, 8}) {
      for (const std::uint64_t seed : {1ULL, 2ULL}) {
        engine::ScenarioSpec spec;
        spec.name = info.name;
        spec.n = 200;
        spec.g = g;
        spec.seed = seed;
        spec.slack = 0.0;  // bursty arrivals as interval jobs
        const auto inst = engine::make_scenario(spec);
        if (!inst.has_value() ||
            inst->kind != core::InstanceKind::kStandard ||
            !inst->continuous.all_interval_jobs(1e-6)) {
          continue;
        }
        families.insert(info.name);
        SCOPED_TRACE(info.name + " g=" + std::to_string(g) +
                     " seed=" + std::to_string(seed));
        const Solution release =
            registry.run("busy/first-fit-release", *inst);
        const Solution online = registry.run("busy/online-first-fit", *inst);
        ASSERT_TRUE(release.ok && release.feasible) << release.message;
        ASSERT_TRUE(online.ok && online.feasible) << online.message;
        EXPECT_EQ(release.cost, online.cost);
        EXPECT_EQ(release.machines, online.machines);
        ASSERT_TRUE(release.busy.has_value() && online.busy.has_value());
        ASSERT_EQ(release.busy->placements.size(),
                  online.busy->placements.size());
        for (std::size_t j = 0; j < release.busy->placements.size(); ++j) {
          EXPECT_EQ(release.busy->placements[j].machine,
                    online.busy->placements[j].machine)
              << "job " << j;
          EXPECT_EQ(release.busy->placements[j].start,
                    online.busy->placements[j].start)
              << "job " << j;
        }
      }
    }
  }
  // interval, clique, proper, laminar, proper-clique, bursty and the fig1
  // and fig8 gadgets.
  EXPECT_GE(families.size(), 8U);
}

/// Everything a row reports but its name, guarantee and times.
void expect_same_answer(const Solution& a, const Solution& b) {
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.exact, b.exact);
  EXPECT_EQ(a.timed_out, b.timed_out);
  EXPECT_EQ(a.message, b.message);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.best_bound, b.best_bound);
  EXPECT_EQ(a.machines, b.machines);
  EXPECT_EQ(a.stats, b.stats);
  ASSERT_EQ(a.busy.has_value(), b.busy.has_value());
  if (a.busy.has_value()) {
    ASSERT_EQ(a.busy->placements.size(), b.busy->placements.size());
    for (std::size_t j = 0; j < a.busy->placements.size(); ++j) {
      EXPECT_EQ(a.busy->placements[j].machine, b.busy->placements[j].machine);
      EXPECT_EQ(a.busy->placements[j].start, b.busy->placements[j].start);
    }
  }
  ASSERT_EQ(a.active.has_value(), b.active.has_value());
  if (a.active.has_value()) {
    EXPECT_EQ(a.active->active_slots, b.active->active_slots);
    EXPECT_EQ(a.active->job_slots, b.active->job_slots);
  }
  EXPECT_FALSE(a.preemptive.has_value() || b.preemptive.has_value());
}

/// Two seeds of every scenario at a size every gate accepts.
std::vector<engine::CellInput> alias_inputs() {
  std::vector<engine::CellInput> inputs;
  for (const engine::ScenarioInfo& info : engine::scenarios()) {
    for (const std::uint64_t seed : {1ULL, 2ULL}) {
      engine::ScenarioSpec spec;
      spec.name = info.name;
      spec.n = 12;
      spec.g = 3;
      spec.seed = seed;
      auto inst = engine::make_scenario(spec);
      if (inst.has_value()) inputs.push_back({std::move(*inst), {}});
    }
  }
  return inputs;
}

/// An alias (Solver::same_as) planned next to its target is not run: its
/// row is the target's, under the alias's name and guarantee, with wall
/// and checker times 0, at any thread count.
TEST(Runner, AliasRowsCopyTheirTargetsRow) {
  const core::SolverRegistry& registry = engine::shared_registry();
  std::set<std::string> aliases;
  for (const int threads : {1, 2}) {
    const std::vector<engine::RunReport> reports = engine::run_cells(
        registry, alias_inputs(), core::RunContext{}, threads);
    for (const engine::RunReport& report : reports) {
      for (const Solution& row : report.solutions) {
        const core::Solver* solver = registry.find(row.solver);
        if (solver == nullptr || solver->same_as.empty()) continue;
        SCOPED_TRACE(row.solver + " threads=" + std::to_string(threads));
        const auto target = std::find_if(
            report.solutions.begin(), report.solutions.end(),
            [&](const Solution& t) { return t.solver == solver->same_as; });
        ASSERT_NE(target, report.solutions.end());
        expect_same_answer(row, *target);
        EXPECT_EQ(row.guarantee, solver->guarantee);
        EXPECT_EQ(row.wall_ms, 0.0);
        EXPECT_EQ(row.check_ms, 0.0);
        aliases.insert(row.solver);
      }
    }
  }
  EXPECT_EQ(aliases, (std::set<std::string>{"active/unit-greedy",
                                            "busy/online-first-fit"}));
}

/// Run on its own, an alias still runs its own `run`, and gives the row
/// the batch copies from its target.
TEST(Runner, AliasRunAloneGivesTheCopiedAnswer) {
  const core::SolverRegistry& registry = engine::shared_registry();
  int compared = 0;
  for (const engine::RunReport& report : engine::run_cells(
           registry, alias_inputs(), core::RunContext{}, 1)) {
    for (const Solution& row : report.solutions) {
      const core::Solver* solver = registry.find(row.solver);
      if (solver == nullptr || solver->same_as.empty()) continue;
      SCOPED_TRACE(row.solver);
      const Solution alone = registry.run(*solver, report.instance);
      EXPECT_EQ(alone.solver, row.solver);
      EXPECT_EQ(alone.guarantee, row.guarantee);
      expect_same_answer(alone, row);
      // Planned without its target, it runs in the batch too.
      std::vector<engine::CellInput> input;
      input.push_back({report.instance, {solver->name}});
      const engine::RunReport solo = engine::run_cells(
          registry, std::move(input), core::RunContext{}, 1).front();
      ASSERT_EQ(solo.solutions.size(), 1u);
      expect_same_answer(solo.solutions[0], row);
      ++compared;
    }
  }
  EXPECT_GT(compared, 10);
}

TEST(Registry, AliasMustMatchItsTarget) {
  const core::SolverRegistry& builtin = engine::shared_registry();
  const auto alias_of = [&](const char* target) {
    core::Solver alias = *builtin.find(target);
    alias.name = "alias";
    alias.same_as = target;
    return alias;
  };
  const auto registry_with = [&](const char* name) {
    core::SolverRegistry registry;
    registry.add(*builtin.find(name));
    return registry;
  };
  {
    core::SolverRegistry registry = registry_with("busy/first-fit");
    registry.add(alias_of("busy/first-fit"));
    EXPECT_EQ(registry.size(), 2u);
  }
  EXPECT_DEATH(core::SolverRegistry().add(alias_of("busy/first-fit")),
               "target must be registered");
  EXPECT_DEATH(
      {
        core::SolverRegistry registry = registry_with("busy/first-fit");
        core::Solver alias = alias_of("busy/first-fit");
        alias.family = Family::kActive;
        registry.add(alias);
      },
      "family and kind");
  EXPECT_DEATH(
      {
        core::SolverRegistry registry = registry_with("busy/first-fit");
        core::Solver alias = alias_of("busy/first-fit");
        alias.check = [](const ProblemInstance&, const Solution&,
                         std::string*) { return true; };
        registry.add(alias);
      },
      "checker and gate");
}

TEST(Registry, DpUnboundedReportsInternStats) {
  core::Rng rng(5);
  gen::ContinuousParams params;
  params.num_jobs = 8;
  params.capacity = 8;  // g >= n: the g=inf freeze always fits.
  params.horizon = 12.0;
  params.max_slack = 1.0;
  const ProblemInstance inst =
      core::make_instance(gen::random_continuous(rng, params));
  const Solution sol =
      engine::shared_registry().run("busy/dp-unbounded", inst);
  ASSERT_TRUE(sol.ok) << sol.message;
  EXPECT_TRUE(sol.feasible) << sol.message;
  EXPECT_TRUE(sol.exact);
  EXPECT_GT(sol.stat("dp_states"), 0.0);
  EXPECT_GT(sol.stat("dp_interned"), 0.0);
  // Hash-consing only pays when states share pending sets.
  EXPECT_LE(sol.stat("dp_interned"), sol.stat("dp_states"));
}

}  // namespace
}  // namespace abt
