// The budget-aware RunContext API: budget expiry returns a feasible
// incumbent with a certified gap instead of a refusal, cancellation
// declines work promptly, incumbent hooks observe improving costs, and a
// budget lifts the exact solvers' measured size gates.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "active/exact.hpp"
#include "active/lp_rounding.hpp"
#include "active/minimal_feasible.hpp"
#include "active/multi_window.hpp"
#include "core/run_context.hpp"
#include "core/solver.hpp"
#include "engine/builtin_solvers.hpp"
#include "engine/runner.hpp"

namespace abt {
namespace {

using core::CancelSource;
using core::ProblemInstance;
using core::RunContext;
using core::Solution;

ProblemInstance scenario_instance(const std::string& name, int n, int g,
                                  std::uint64_t seed = 7) {
  engine::ScenarioSpec spec;
  spec.name = name;
  spec.n = n;
  spec.g = g;
  spec.seed = seed;
  std::string error;
  const auto inst = engine::make_scenario(spec, &error);
  EXPECT_TRUE(inst.has_value()) << error;
  return *inst;
}

TEST(RunContext, DefaultIsUnlimitedAndNeverStops) {
  const RunContext ctx;
  EXPECT_FALSE(ctx.has_budget());
  EXPECT_EQ(ctx.budget_ms(), 0.0);
  EXPECT_FALSE(ctx.cancelled());
  EXPECT_FALSE(ctx.out_of_budget());
  EXPECT_FALSE(ctx.should_stop());
  EXPECT_EQ(ctx.remaining_ms(), std::numeric_limits<double>::infinity());
}

TEST(RunContext, BudgetExpiresAndRestartRearmsIt) {
  const RunContext ctx = RunContext::with_budget_ms(1e-6);
  EXPECT_TRUE(ctx.has_budget());
  // The budget is far below any measurable elapsed time, so by the time
  // the assertion runs it has expired.
  while (!ctx.out_of_budget()) {
  }
  EXPECT_TRUE(ctx.should_stop());
  // A generous re-armed deadline is live again.
  const RunContext fresh = RunContext::with_budget_ms(60'000).restarted();
  EXPECT_FALSE(fresh.out_of_budget());
  EXPECT_GT(fresh.remaining_ms(), 0.0);
}

TEST(RunContext, CancelSourceReachesEveryToken) {
  CancelSource source;
  const RunContext ctx = RunContext().set_cancel_token(source.token());
  EXPECT_FALSE(ctx.should_stop());
  source.cancel();
  EXPECT_TRUE(ctx.cancelled());
  EXPECT_TRUE(ctx.should_stop());
}

TEST(RunContext, GapSemantics) {
  Solution sol;
  sol.cost = 12.0;
  EXPECT_TRUE(std::isinf(sol.gap()));  // no bound certified
  sol.best_bound = 10.0;
  EXPECT_NEAR(sol.gap(), 0.2, 1e-12);
  sol.exact = true;
  EXPECT_EQ(sol.gap(), 0.0);  // proven optimum, whatever the bound says
  sol.exact = false;
  sol.best_bound = 15.0;  // bound above cost clamps to 0, never negative
  EXPECT_EQ(sol.gap(), 0.0);
}

// The acceptance criterion verbatim: n = 24 is past the measured gate
// (14), so a free run refuses; with a budget the oracle runs anytime and
// returns a checker-validated incumbent with timed_out and a gap.
TEST(RunContext, BudgetExpiryReturnsFeasibleIncumbentWithGap) {
  const ProblemInstance inst = scenario_instance("weighted", 24, 3);
  const core::SolverRegistry& registry = engine::shared_registry();

  const Solution refused = registry.run("busy/weighted-exact", inst);
  EXPECT_FALSE(refused.ok);
  EXPECT_NE(refused.message.find("too large"), std::string::npos)
      << refused.message;

  const RunContext ctx = RunContext::with_budget_ms(100).restarted();
  const Solution sol = registry.run("busy/weighted-exact", inst, ctx);
  ASSERT_TRUE(sol.ok) << sol.message;
  EXPECT_TRUE(sol.feasible) << sol.message;
  EXPECT_TRUE(sol.timed_out);
  EXPECT_FALSE(sol.exact);
  EXPECT_EQ(sol.budget_ms, 100.0);
  EXPECT_GT(sol.best_bound, 0.0);
  EXPECT_GE(sol.cost, sol.best_bound - 1e-9);
  EXPECT_GE(sol.gap(), 0.0);
  EXPECT_TRUE(std::isfinite(sol.gap()));
}

TEST(RunContext, BudgetLiftsExactGatesInSelection) {
  const ProblemInstance inst = scenario_instance("weighted", 24, 3);
  const core::SolverRegistry& registry = engine::shared_registry();
  const auto has_exact = [](const std::vector<const core::Solver*>& plan) {
    for (const core::Solver* s : plan) {
      if (s->name == "busy/weighted-exact") return true;
    }
    return false;
  };
  EXPECT_FALSE(has_exact(registry.selection(inst)));
  EXPECT_TRUE(has_exact(
      registry.selection(inst, {}, RunContext::with_budget_ms(50))));
}

TEST(RunContext, ActiveExactRunsAnytimePastItsGate) {
  // n = 30 at horizon 60 is far past the free-run gate (n 20, horizon 24);
  // the branch & bound seeds a minimal-feasible incumbent and must return
  // it (or better) at the deadline.
  const ProblemInstance inst = scenario_instance("slotted", 30, 3);
  const core::SolverRegistry& registry = engine::shared_registry();

  EXPECT_FALSE(registry.run("active/exact", inst).ok);

  const RunContext ctx = RunContext::with_budget_ms(100).restarted();
  const Solution sol = registry.run("active/exact", inst, ctx);
  ASSERT_TRUE(sol.ok) << sol.message;
  EXPECT_TRUE(sol.feasible) << sol.message;
  // Either the search finished inside the budget (proven optimum) or it
  // was interrupted with a certified mass bound.
  if (!sol.exact) {
    EXPECT_TRUE(sol.timed_out);
    EXPECT_GT(sol.best_bound, 0.0);
    EXPECT_GE(sol.cost, sol.best_bound - 1e-9);
  }
}

TEST(RunContext, CancelledContextDeclinesEverySolver) {
  const ProblemInstance inst = scenario_instance("interval", 10, 3);
  const core::SolverRegistry& registry = engine::shared_registry();
  CancelSource source;
  source.cancel();
  const RunContext ctx = RunContext().set_cancel_token(source.token());
  const Solution sol = registry.run("busy/first-fit", inst, ctx);
  EXPECT_FALSE(sol.ok);
  EXPECT_TRUE(sol.timed_out);
  EXPECT_EQ(sol.message, "cancelled");
}

TEST(RunContext, CancellationSurfacesThroughFlowBasedSolvers) {
  // A cancel that fires inside a solver (past the registry's entry check)
  // must surface as an explicit cancelled verdict, never be misread as
  // "instance infeasible" — the flow checks are now cancellation-aware.
  const ProblemInstance inst = scenario_instance("slotted", 12, 2, 11);
  CancelSource source;
  source.cancel();
  const RunContext ctx = RunContext().set_cancel_token(source.token());
  ASSERT_TRUE(ctx.cancelled());

  bool cancelled = false;
  active::MinimalFeasibleOptions minimal_options;
  minimal_options.context = &ctx;
  EXPECT_FALSE(active::solve_minimal_feasible(inst.slotted, minimal_options,
                                              &cancelled)
                   .has_value());
  EXPECT_TRUE(cancelled);

  active::ExactOptions exact_options;
  exact_options.context = &ctx;
  const auto exact = active::solve_exact(inst.slotted, exact_options);
  ASSERT_TRUE(exact.has_value());
  EXPECT_TRUE(exact->cancelled);
  EXPECT_TRUE(exact->timed_out);
  EXPECT_FALSE(exact->proven_optimal);

  const auto rounded = active::solve_lp_rounding(inst.slotted, &ctx);
  ASSERT_TRUE(rounded.has_value());
  EXPECT_TRUE(rounded->cancelled);

  // The registered closing-pass solvers hand the context through: a
  // cancelled first flow is a timed-out run, not "instance infeasible".
  const core::SolverRegistry& registry = engine::shared_registry();
  const core::Solver* unit_greedy = registry.find("active/unit-greedy");
  ASSERT_NE(unit_greedy, nullptr);
  const Solution greedy = unit_greedy->run(inst, ctx);
  EXPECT_FALSE(greedy.ok);
  EXPECT_TRUE(greedy.timed_out) << greedy.message;

  const ProblemInstance mw = scenario_instance("multi-window", 12, 2, 11);
  cancelled = false;
  EXPECT_FALSE(active::solve_minimal_feasible(mw.multi_window,
                                              minimal_options, &cancelled)
                   .has_value());
  EXPECT_TRUE(cancelled);
  const core::Solver* mw_minimal =
      registry.find("active/multi-window-minimal");
  ASSERT_NE(mw_minimal, nullptr);
  const Solution mw_sol = mw_minimal->run(mw, ctx);
  EXPECT_FALSE(mw_sol.ok);
  EXPECT_TRUE(mw_sol.timed_out) << mw_sol.message;
}

TEST(RunContext, CancelMidClosingPassReturnsCheckedSchedule) {
  // A cancel that lands after the first flow stops the closing pass; the
  // slots kept so far are feasible but not minimal, and the registry's
  // checker must accept the schedule extracted from them. The cancel comes
  // from another thread after a growing delay until one lands mid-pass.
  const core::SolverRegistry& registry = engine::shared_registry();
  for (const auto& [solver, scenario] :
       {std::pair<const char*, const char*>{"active/unit-greedy", "slotted"},
        std::pair<const char*, const char*>{"active/minimal-densest",
                                            "slotted"},
        std::pair<const char*, const char*>{"active/multi-window-minimal",
                                            "multi-window"}}) {
    const ProblemInstance inst = scenario_instance(scenario, 256, 2, 5);
    const Solution free_run = registry.run(solver, inst);
    ASSERT_TRUE(free_run.ok && free_run.feasible) << free_run.message;
    bool saw_mid_pass = false;
    double delay_us = 20.0;
    for (int attempt = 0; attempt < 400 && !saw_mid_pass; ++attempt) {
      CancelSource source;
      const RunContext ctx = RunContext().set_cancel_token(source.token());
      std::thread canceller([&source, delay_us] {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::micro>(delay_us));
        source.cancel();
      });
      const Solution sol = registry.run(solver, inst, ctx);
      canceller.join();
      if (sol.ok) {
        EXPECT_TRUE(sol.feasible) << solver << ": " << sol.message;
        EXPECT_GE(sol.cost, free_run.cost) << solver;
        saw_mid_pass = sol.cost > free_run.cost;
      } else {
        EXPECT_TRUE(sol.timed_out) << solver << ": " << sol.message;
      }
      // Walk the delay up through the pass, then start over.
      delay_us = delay_us > 2e5 ? 20.0 : delay_us * 1.3;
    }
    EXPECT_TRUE(saw_mid_pass) << solver << ": no cancel landed mid-pass";
  }
}

TEST(RunContext, IncumbentHookObservesImprovingCosts) {
  const ProblemInstance inst = scenario_instance("slotted", 12, 2, 11);
  const core::SolverRegistry& registry = engine::shared_registry();
  std::mutex mutex;
  std::vector<double> costs;
  RunContext ctx;
  ctx.set_incumbent_hook([&](const core::Incumbent& incumbent) {
    const std::lock_guard<std::mutex> lock(mutex);
    costs.push_back(incumbent.cost);
    EXPECT_GE(incumbent.elapsed_ms, 0.0);
  });
  const Solution sol = registry.run("active/exact", inst, ctx);
  ASSERT_TRUE(sol.ok) << sol.message;
  ASSERT_FALSE(costs.empty());
  for (std::size_t i = 1; i < costs.size(); ++i) {
    EXPECT_LE(costs[i], costs[i - 1]) << "incumbents must improve";
  }
  // The final reported incumbent is the returned cost.
  EXPECT_EQ(costs.back(), sol.cost);
}

TEST(RunContext, RenderRunsOnlyForAnAttachedHookThatChildrenCarry) {
  int renders = 0;
  const auto counting_render = [&renders] {
    ++renders;
    return std::string("slots 1 2");
  };
  const RunContext bare = RunContext::with_budget_ms(1e6);
  bare.report_incumbent(3.0, counting_render);
  bare.child().report_incumbent(2.0, counting_render);
  bare.restarted().report_incumbent(1.0, counting_render);
  EXPECT_EQ(renders, 0) << "no hook, no render";

  std::vector<core::Incumbent> seen;
  RunContext hooked = RunContext::with_budget_ms(1e6);
  hooked.set_incumbent_hook(
      [&seen](const core::Incumbent& incumbent) { seen.push_back(incumbent); });
  hooked.report_incumbent(3.0, counting_render);
  hooked.child().report_incumbent(2.0, counting_render);
  hooked.restarted().report_incumbent(1.0, counting_render);
  EXPECT_EQ(renders, 3);
  ASSERT_EQ(seen.size(), 3u);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].cost, 3.0 - static_cast<double>(i));
    EXPECT_GE(seen[i].elapsed_ms, 0.0);
    EXPECT_EQ(seen[i].schedule, "slots 1 2");
  }
}

TEST(RunContext, FullAnytimeRunsRenderEveryIncumbentOnlyForAHook) {
  // The solvers' renders are lazy lambdas; without a hook report_incumbent
  // never calls them (above), and a hook must not change the answer.
  const core::SolverRegistry& registry = engine::shared_registry();
  struct Run {
    const char* solver;
    const char* dialect;  ///< How its schedule renders begin.
    ProblemInstance inst;
  };
  const Run runs[] = {
      {"active/exact", "slots", scenario_instance("slotted", 12, 2, 11)},
      {"busy/weighted-exact", "machine 0:",
       scenario_instance("weighted", 10, 3, 5)},
  };
  for (const auto& [solver, dialect, inst] : runs) {
    const Solution bare = registry.run(solver, inst, RunContext());
    std::vector<core::Incumbent> seen;
    RunContext hooked;
    hooked.set_incumbent_hook([&seen](const core::Incumbent& incumbent) {
      seen.push_back(incumbent);
    });
    const Solution observed = registry.run(solver, inst, hooked.child());
    ASSERT_TRUE(bare.ok && observed.ok) << solver << ": " << bare.message;
    EXPECT_TRUE(bare.exact && observed.exact) << solver;
    EXPECT_EQ(observed.cost, bare.cost) << solver;
    ASSERT_FALSE(seen.empty()) << solver;
    // The search's own bookkeeping, up to summation order.
    EXPECT_NEAR(seen.back().cost, bare.cost, 1e-9 * bare.cost) << solver;
    for (const core::Incumbent& incumbent : seen) {
      EXPECT_EQ(incumbent.schedule.rfind(dialect, 0), 0u)
          << solver << ": " << incumbent.schedule;
    }
  }
}

TEST(RunContext, MultiWindowInfeasibleConcludesWithoutEnumerating) {
  // Two 2-slot jobs, one shared single-slot window, g = 1: infeasible.
  // The anytime path must conclude from the failed all-slots check —
  // never burn the budget enumerating subsets that cannot succeed.
  const active::MultiWindowInstance infeasible(
      {{{{0, 2}}, 2}, {{{0, 2}}, 2}}, 1);
  const RunContext ctx = RunContext::with_budget_ms(5).restarted();
  active::MultiWindowExactOptions options;
  options.context = &ctx;
  EXPECT_FALSE(active::mw_solve_exact_anytime(infeasible, options)
                   .has_value());
}

TEST(RunContext, PolynomialSolversIgnoreExpiredBudgets) {
  // An (effectively) expired budget must not stop a polynomial solver:
  // it runs to completion and reports a full, untimed-out solution.
  const ProblemInstance inst = scenario_instance("interval", 20, 3);
  const core::SolverRegistry& registry = engine::shared_registry();
  const RunContext ctx = RunContext::with_budget_ms(1e-6);
  const Solution sol = registry.run("busy/first-fit", inst, ctx);
  ASSERT_TRUE(sol.ok) << sol.message;
  EXPECT_TRUE(sol.feasible);
  EXPECT_FALSE(sol.timed_out);
}

TEST(RunContext, RunInstanceCarriesBudgetIntoEveryCell) {
  const ProblemInstance inst = scenario_instance("weighted", 20, 3);
  engine::RunOptions options;
  options.budget_ms = 60;
  const engine::RunReport report =
      engine::run_instance(engine::shared_registry(), inst, options);
  bool saw_exact = false;
  for (const Solution& sol : report.solutions) {
    EXPECT_EQ(sol.budget_ms, 60.0) << sol.solver;
    if (sol.solver == "busy/weighted-exact") {
      saw_exact = true;
      ASSERT_TRUE(sol.ok) << sol.message;
      EXPECT_TRUE(sol.feasible);
      // Completed inside the budget or timed out with an incumbent —
      // either way the cell reports, never refuses.
      EXPECT_TRUE(sol.exact || sol.timed_out);
    }
  }
  EXPECT_TRUE(saw_exact) << "budget must lift the n=20 gate";
}

// ---------------------------------------------------------------------------
// Child contexts and chained tokens (the portfolio race's substrate).

TEST(RunContext, ChainedTokenTripsWhenEitherSourceDoes) {
  CancelSource a;
  CancelSource b;
  const core::CancelToken both = a.token().chained(b.token());
  EXPECT_FALSE(both.cancelled());
  b.cancel();
  EXPECT_TRUE(both.cancelled()) << "upstream trip must surface";
  CancelSource c;
  const core::CancelToken other = c.token().chained(a.token());
  EXPECT_FALSE(other.cancelled());
  c.cancel();
  EXPECT_TRUE(other.cancelled()) << "own trip must surface";
  // Chaining with an empty token is the identity in both directions.
  CancelSource d;
  EXPECT_FALSE(d.token().chained(core::CancelToken()).cancelled());
  EXPECT_FALSE(core::CancelToken().chained(d.token()).cancelled());
  d.cancel();
  EXPECT_TRUE(d.token().chained(core::CancelToken()).cancelled());
  EXPECT_TRUE(core::CancelToken().chained(d.token()).cancelled());
  EXPECT_TRUE(core::CancelToken().empty());
  EXPECT_FALSE(d.token().empty());
}

TEST(RunContext, ChildInheritsBudgetCancellationAndCap) {
  // Budget: a child of a budgeted parent never outlives the parent's
  // remaining allowance; the child of an unlimited parent is unlimited too.
  const RunContext parent = RunContext::with_budget_ms(60'000);
  const RunContext child = parent.child();
  EXPECT_TRUE(child.has_budget());
  EXPECT_LE(child.budget_ms(), 60'000.0);
  EXPECT_FALSE(RunContext().child().has_budget());
  // An exhausted parent yields an immediately-expiring child, never a
  // fresh unlimited one.
  const RunContext expired = RunContext::with_budget_ms(1e-6);
  while (!expired.out_of_budget()) {
  }
  const RunContext drained = expired.child();
  EXPECT_TRUE(drained.has_budget());
  while (!drained.out_of_budget()) {
  }
  EXPECT_TRUE(drained.should_stop());

  // Cancellation: the child observes BOTH the parent's token and the
  // extra one, and the parent never observes the child's extra source.
  CancelSource parent_stop;
  CancelSource child_stop;
  const RunContext root = RunContext().set_cancel_token(parent_stop.token());
  const RunContext derived = root.child(child_stop.token());
  EXPECT_FALSE(derived.cancelled());
  child_stop.cancel();
  EXPECT_TRUE(derived.cancelled());
  EXPECT_FALSE(root.cancelled()) << "cancellation must not flow upward";
  CancelSource other_stop;
  const RunContext sibling = root.child(other_stop.token());
  EXPECT_FALSE(sibling.cancelled()) << "siblings are independent";
  parent_stop.cancel();
  EXPECT_TRUE(sibling.cancelled()) << "parent trip reaches every child";
  EXPECT_TRUE(root.cancelled());
}

TEST(RunContext, GrandchildSeesEveryAncestorToken) {
  CancelSource top;
  CancelSource mid;
  CancelSource leaf;
  const RunContext root = RunContext().set_cancel_token(top.token());
  const RunContext middle = root.child(mid.token());
  const RunContext bottom = middle.child(leaf.token());
  EXPECT_FALSE(bottom.cancelled());
  top.cancel();
  EXPECT_TRUE(bottom.cancelled()) << "a root trip drains the whole tree";
}

}  // namespace
}  // namespace abt
