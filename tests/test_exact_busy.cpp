// The one busy partition search (busy::solve_exact_busy) against the frozen
// unit-width search it replaced (tests/oracles/exact_busy_oracle.hpp), and
// the two registrations that share it.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "busy/weighted.hpp"
#include "core/busy_schedule.hpp"
#include "core/rng.hpp"
#include "core/run_context.hpp"
#include "engine/builtin_solvers.hpp"
#include "engine/runner.hpp"
#include "exact_busy_oracle.hpp"
#include "gen/gadgets.hpp"
#include "gen/random_instances.hpp"

namespace abt::busy {
namespace {

using core::ContinuousInstance;

/// True when two jobs share a length: the one search orders jobs with
/// stable_sort and the frozen one with std::sort, so on ties the two may
/// visit jobs in a different order. (At n <= 16 libstdc++'s std::sort is
/// an insertion sort, which is stable, so even then they agree today.)
bool has_length_ties(const ContinuousInstance& inst) {
  for (int a = 0; a < inst.size(); ++a) {
    for (int b = a + 1; b < inst.size(); ++b) {
      if (inst.job(a).length == inst.job(b).length) return true;
    }
  }
  return false;
}

/// Costs, machine counts and node counts must match the frozen search bit
/// for bit; schedules may differ only when lengths tie.
void expect_same_search(const ContinuousInstance& inst,
                        const std::string& label) {
  const oracle::ExactResult frozen = oracle::exact_interval_search(inst);
  const ExactBusyResult merged =
      solve_exact_busy(WeightedInstance::with_unit_widths(inst));
  EXPECT_TRUE(merged.proven_optimal) << label;
  EXPECT_EQ(merged.nodes, frozen.nodes) << label;
  EXPECT_EQ(core::busy_cost(inst, merged.schedule),
            core::busy_cost(inst, frozen.schedule))
      << label;
  EXPECT_EQ(merged.schedule.machine_count(), frozen.schedule.machine_count())
      << label;
  if (!has_length_ties(inst)) {
    for (int j = 0; j < inst.size(); ++j) {
      const auto at = static_cast<std::size_t>(j);
      EXPECT_EQ(merged.schedule.placements[at].machine,
                frozen.schedule.placements[at].machine)
          << label << " job " << j;
      EXPECT_EQ(merged.schedule.placements[at].start,
                frozen.schedule.placements[at].start)
          << label << " job " << j;
    }
  }
  std::string why;
  EXPECT_TRUE(core::check_busy_schedule(inst, merged.schedule, &why))
      << label << ": " << why;
}

using Family = std::function<ContinuousInstance(core::Rng&,
                                                const gen::ContinuousParams&)>;

TEST(ExactBusy, MatchesTheFrozenUnitWidthSearchOnRandomFamilies) {
  const std::vector<std::pair<std::string, Family>> families = {
      {"interval", gen::random_continuous},
      {"clique", gen::random_clique},
      {"proper", gen::random_proper},
      {"laminar", gen::random_laminar},
  };
  for (const auto& [name, make] : families) {
    for (int g = 1; g <= 4; ++g) {
      // At g <= 2 both searches take seconds per n = 16 interval instance
      // (the capacity prune barely bites), so those rows stop at n = 12.
      for (int n = 4; n <= (g <= 2 ? 12 : 16); n += 4) {
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
          core::Rng rng(seed);
          gen::ContinuousParams params;
          params.num_jobs = n;
          params.capacity = g;
          params.horizon = 10.0 + n / 4.0;
          expect_same_search(make(rng, params),
                             name + " n=" + std::to_string(n) + " g=" +
                                 std::to_string(g) +
                                 " seed=" + std::to_string(seed));
        }
      }
    }
  }
}

TEST(ExactBusy, MatchesTheFrozenUnitWidthSearchOnGadgets) {
  expect_same_search(gen::fig1_example(), "fig1");
  for (const double eps : {0.32, 0.1, 0.01, 0.001}) {
    expect_same_search(gen::fig8_instance(eps, eps / 3.0),
                       "fig8 eps=" + std::to_string(eps));
  }
}

/// busy/exact on a standard instance and busy/weighted-exact on the same
/// jobs written out by hand with width 1 run the same search.
TEST(ExactBusy, StandardAndWidthOneWeightedRegistrationsAgree) {
  const core::SolverRegistry& registry = engine::shared_registry();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    core::Rng rng(seed);
    gen::ContinuousParams params;
    params.num_jobs = 12;
    params.capacity = 3;
    params.horizon = 13.0;
    const ContinuousInstance inst = gen::random_continuous(rng, params);
    std::vector<WeightedJob> jobs;
    for (const core::ContinuousJob& job : inst.jobs()) {
      jobs.push_back({job, 1});
    }
    const core::Solution standard =
        registry.run("busy/exact", core::make_instance(inst));
    const core::Solution weighted = registry.run(
        "busy/weighted-exact",
        core::make_instance(
            WeightedInstance(std::move(jobs), inst.capacity())));
    ASSERT_TRUE(standard.ok && standard.feasible) << standard.message;
    ASSERT_TRUE(weighted.ok && weighted.feasible) << weighted.message;
    EXPECT_EQ(standard.cost, weighted.cost) << "seed " << seed;
    EXPECT_EQ(standard.stat("nodes", -1.0), weighted.stat("nodes", -2.0))
        << "seed " << seed;
    EXPECT_TRUE(standard.exact && weighted.exact);
  }
}

/// The free-run gates are the registry's g-dependent bounds: at each
/// capacity n = gate is applicable, n = gate + 1 only with a budget, under
/// which the search runs anytime.
TEST(ExactBusy, FreeRunGateIsTheRegistrysConstant) {
  const core::SolverRegistry& registry = engine::shared_registry();
  const auto selects = [&](const std::string& scenario, int n, int g,
                           const core::RunContext& ctx) {
    engine::ScenarioSpec spec;
    spec.name = scenario;
    spec.n = n;
    spec.g = g;
    spec.seed = 3;
    const auto inst = engine::make_scenario(spec);
    const std::string exact =
        scenario == "weighted" ? "busy/weighted-exact" : "busy/exact";
    for (const core::Solver* s : registry.selection(*inst, {}, ctx)) {
      if (s->name == exact) return true;
    }
    return false;
  };
  const core::RunContext budget = core::RunContext::with_budget_ms(20);
  for (const int g : {1, 2, 3}) {
    const int gate = engine::exact_free_run_max_jobs(g);
    EXPECT_TRUE(selects("interval", gate, g, {})) << "g = " << g;
    EXPECT_FALSE(selects("interval", gate + 1, g, {})) << "g = " << g;
    EXPECT_TRUE(selects("interval", gate + 1, g, budget)) << "g = " << g;

    const int weighted_gate = engine::weighted_exact_free_run_max_jobs(g);
    EXPECT_TRUE(selects("weighted", weighted_gate, g, {})) << "g = " << g;
    EXPECT_FALSE(selects("weighted", weighted_gate + 1, g, {}))
        << "g = " << g;
    EXPECT_TRUE(selects("weighted", weighted_gate + 1, g, budget))
        << "g = " << g;
  }
  // Small g is the hard end of the search: there the gates sit lower.
  EXPECT_LT(engine::exact_free_run_max_jobs(1),
            engine::exact_free_run_max_jobs(2));
  EXPECT_LT(engine::exact_free_run_max_jobs(2),
            engine::exact_free_run_max_jobs(3));
  EXPECT_LT(engine::weighted_exact_free_run_max_jobs(1),
            engine::weighted_exact_free_run_max_jobs(2));
  // The unbudgeted `abt_solve --gen interval --n 18 --g 1` of the gate's
  // history no longer reaches the search.
  EXPECT_FALSE(selects("interval", 18, 1, {}));

  core::Rng rng(3);
  gen::ContinuousParams params;
  params.num_jobs = 24;
  params.capacity = 3;
  const core::Solution budgeted = registry.run(
      "busy/exact", core::make_instance(gen::random_continuous(rng, params)),
      core::RunContext::with_budget_ms(20).restarted());
  ASSERT_TRUE(budgeted.ok) << budgeted.message;
  EXPECT_TRUE(budgeted.feasible) << budgeted.message;
}

/// A context cancelled before the call still gets the first depth-first
/// descent: a feasible, checker-valid schedule that is not proven optimal.
TEST(ExactBusy, PreCancelledContextCompletesTheFirstDescent) {
  core::Rng rng(1);
  gen::ContinuousParams params;
  params.num_jobs = 16;
  params.capacity = 3;
  params.horizon = 14.0;
  const ContinuousInstance inst = gen::random_continuous(rng, params);
  ASSERT_GT(oracle::exact_interval_search(inst).nodes, 1024)
      << "the instance must outlast the first poll";

  core::CancelSource source;
  source.cancel();
  const core::RunContext ctx =
      core::RunContext().set_cancel_token(source.token());
  const ExactBusyResult result =
      solve_exact_busy(WeightedInstance::with_unit_widths(inst), {&ctx});
  EXPECT_FALSE(result.proven_optimal);
  std::string why;
  EXPECT_TRUE(core::check_busy_schedule(inst, result.schedule, &why)) << why;
}

}  // namespace
}  // namespace abt::busy
