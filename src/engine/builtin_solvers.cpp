#include "engine/builtin_solvers.hpp"

#include <algorithm>
#include <utility>

#include "active/exact.hpp"
#include "active/feasibility.hpp"
#include "active/lp_rounding.hpp"
#include "active/minimal_feasible.hpp"
#include "active/multi_window.hpp"
#include "busy/dp_unbounded.hpp"
#include "busy/first_fit.hpp"
#include "busy/flexible_pipeline.hpp"
#include "busy/greedy_tracking.hpp"
#include "busy/lower_bounds.hpp"
#include "busy/online.hpp"
#include "busy/preemptive.hpp"
#include "busy/special_cases.hpp"
#include "busy/two_track_peeling.hpp"
#include "busy/weighted.hpp"
#include "core/sweep.hpp"
#include "engine/scratch.hpp"

namespace abt::engine {

using core::Family;
using core::InstanceKind;
using core::ProblemInstance;
using core::RunContext;
using core::Solution;
using core::Solver;

namespace {

/// The explicit "no gate" predicate. The project lint (scripts/abt_lint.py)
/// requires every registration to set `applicable`; solvers that genuinely
/// accept every instance of their family/kind say so by name instead of
/// leaving the field empty (an empty field crashed auto_entries() in PR 8).
bool always_applicable(const ProblemInstance& /*inst*/,
                       const RunContext& /*ctx*/, std::string* /*why*/) {
  return true;
}

bool interval_jobs(const ProblemInstance& inst, const RunContext& /*ctx*/,
                   std::string* why) {
  if (inst.continuous.all_interval_jobs(1e-6)) return true;
  if (why != nullptr) *why = "needs interval jobs (no slack)";
  return false;
}

bool flexible_jobs(const ProblemInstance& inst, const RunContext& /*ctx*/,
                   std::string* why) {
  if (!inst.continuous.all_interval_jobs(1e-6)) return true;
  if (why != nullptr) {
    *why = "interval jobs: use the direct interval algorithms";
  }
  return false;
}

Solution busy_solution(core::BusySchedule sched, const ProblemInstance& inst) {
  Solution sol;
  sol.ok = true;
  sol.cost = core::busy_cost(inst.continuous, sched);
  sol.busy = std::move(sched);
  return sol;
}

/// Direct interval-job algorithm taking (instance) -> BusySchedule.
template <typename Fn>
Solver interval_solver(std::string name, std::string guarantee, double factor,
                       Fn fn) {
  Solver s;
  s.name = std::move(name);
  s.family = Family::kBusy;
  s.guarantee = std::move(guarantee);
  s.guarantee_factor = factor;
  s.applicable = interval_jobs;
  s.check = core::check_standard_solution;
  s.run = [fn](const ProblemInstance& inst, const RunContext& /*ctx*/) {
    return busy_solution(fn(inst.continuous), inst);
  };
  return s;
}

/// Section 4.3 pipeline: freeze with the g=infinity DP, then run the given
/// interval algorithm. Registered for flexible instances only — on interval
/// jobs the pipeline degenerates to the direct algorithm. The DP comes from
/// the worker's shared solve; a stopped DP keeps its push-left fallback,
/// still feasible, and reports dp_exact 0 without an opt_inf bound.
Solver pipeline_solver(std::string name, std::string guarantee, double factor,
                       busy::IntervalAlgorithm algorithm) {
  Solver s;
  s.name = std::move(name);
  s.family = Family::kBusy;
  s.guarantee = std::move(guarantee);
  s.guarantee_factor = factor;
  s.applicable = flexible_jobs;
  s.check = core::check_standard_solution;
  s.run = [algorithm](const ProblemInstance& inst, const RunContext& ctx) {
    const busy::FlexiblePipelineResult result = busy::schedule_flexible(
        inst.continuous, shared_unbounded(inst.continuous, ctx), algorithm);
    Solution sol = busy_solution(result.schedule, inst);
    sol.timed_out = result.timed_out;
    if (result.dp_exact) sol.add_stat("opt_inf", result.opt_infinity);
    sol.add_stat("dp_exact", result.dp_exact ? 1.0 : 0.0);
    return sol;
  };
  return s;
}

Solver online_solver(std::string name, busy::OnlinePolicy policy) {
  Solver s;
  s.name = std::move(name);
  s.family = Family::kBusy;
  s.guarantee = "online baseline (Omega(g) adversarial)";
  s.guarantee_factor = 0.0;
  s.applicable = interval_jobs;
  s.check = core::check_standard_solution;
  s.run = [policy](const ProblemInstance& inst, const RunContext& /*ctx*/) {
    return busy_solution(busy::schedule_online(inst.continuous, policy), inst);
  };
  return s;
}

/// Probed directly as well as through the registry's kind gate, so it
/// refuses wrong-kind instances instead of asserting (like is_weighted).
bool applicable_multi_window(const ProblemInstance& inst,
                             const RunContext& /*ctx*/, std::string* why) {
  if (inst.kind == InstanceKind::kMultiWindow) return true;
  if (why != nullptr) *why = "needs a multi-window instance";
  return false;
}

/// Minimal-feasible active solver with a fixed closing order, on standard
/// (single-window) or multi-window instances. Theorem 1's factor 3 needs
/// single windows.
Solver minimal_solver(std::string name, std::string guarantee,
                      active::CloseOrder order,
                      InstanceKind kind = InstanceKind::kStandard) {
  Solver s;
  s.name = std::move(name);
  s.family = Family::kActive;
  s.kind = kind;
  s.guarantee = std::move(guarantee);
  s.guarantee_factor = kind == InstanceKind::kStandard ? 3.0 : 0.0;
  s.applicable = kind == InstanceKind::kMultiWindow ? applicable_multi_window
                                                    : always_applicable;
  s.check = core::check_standard_solution;
  s.run = [order](const ProblemInstance& inst, const RunContext& ctx) {
    Solution sol;
    active::MinimalFeasibleOptions options;
    options.order = order;
    options.context = &ctx;  // cancellation only; budgets cannot alter output
    bool cancelled = false;
    const auto schedule =
        inst.kind == InstanceKind::kMultiWindow
            ? active::solve_minimal_feasible(inst.multi_window, options,
                                             &cancelled)
            : active::solve_minimal_feasible(inst.slotted, options,
                                             &cancelled);
    if (!schedule.has_value()) {
      if (cancelled) {
        sol.timed_out = true;
        sol.message = "cancelled before feasibility was established";
        return sol;
      }
      sol.message = "instance infeasible";
      return sol;
    }
    sol.ok = true;
    sol.cost = static_cast<double>(schedule->cost());
    sol.active = *schedule;
    return sol;
  };
  return s;
}

void register_busy(core::SolverRegistry& registry) {
  registry.add(interval_solver(
      "busy/first-fit", "<= 4 OPT (Flammini et al.)", 4.0,
      [](const core::ContinuousInstance& inst) { return busy::first_fit(inst); }));
  registry.add(interval_solver(
      "busy/first-fit-release", "<= 2 OPT on proper instances", 0.0,
      [](const core::ContinuousInstance& inst) {
        return busy::schedule_online(inst, busy::OnlinePolicy::kFirstFit);
      }));
  registry.add(interval_solver(
      "busy/greedy-tracking", "<= 3 OPT (Thm 5)", 3.0,
      [](const core::ContinuousInstance& inst) {
        return busy::greedy_tracking(inst);
      }));
  registry.add(interval_solver(
      "busy/two-track-peeling", "<= 2 OPT (Thm 3, consolidating split)", 2.0,
      [](const core::ContinuousInstance& inst) {
        return busy::two_track_peeling(inst);
      }));
  registry.add(interval_solver(
      "busy/two-track-parity", "<= 2 OPT (Thm 3, Kumar-Rudra split)", 2.0,
      [](const core::ContinuousInstance& inst) {
        return busy::two_track_peeling(inst, nullptr,
                                       busy::PairSplit::kParity);
      }));

  {
    Solver s;
    s.name = "busy/exact";
    s.family = Family::kBusy;
    s.guarantee = "optimal (partition search; anytime under a budget)";
    s.guarantee_factor = 1.0;
    s.exact = true;
    s.check = core::check_standard_solution;
    s.applicable = [](const ProblemInstance& inst, const RunContext& ctx,
                      std::string* why) {
      if (!interval_jobs(inst, ctx, why)) return false;
      // The measured gate is the free-run guard; a budget retires it —
      // the search runs anytime to the deadline and reports its gap.
      if (!ctx.has_budget() &&
          inst.continuous.size() >
              exact_free_run_max_jobs(inst.continuous.capacity())) {
        if (why != nullptr) {
          *why = "instance too large for the exact oracle (give it a "
                 "budget to run anytime)";
        }
        return false;
      }
      return true;
    };
    s.run = [](const ProblemInstance& inst, const RunContext& ctx) {
      const busy::ExactBusyResult result = busy::solve_exact_busy(
          core::WeightedInstance::with_unit_widths(inst.continuous), {&ctx});
      Solution sol = busy_solution(result.schedule, inst);
      sol.exact = result.proven_optimal;
      sol.timed_out = !result.proven_optimal;
      if (!result.proven_optimal) {
        sol.best_bound =
            busy::busy_lower_bounds(inst.continuous, /*with_span=*/true)
                .best();
      }
      sol.add_stat("nodes", static_cast<double>(result.nodes));
      return sol;
    };
    registry.add(std::move(s));
  }

  {
    Solver s;
    s.name = "busy/proper-clique-dp";
    s.family = Family::kBusy;
    s.guarantee = "optimal (Mertzios et al. DP)";
    s.guarantee_factor = 1.0;
    s.exact = true;
    s.check = core::check_standard_solution;
    s.applicable = [](const ProblemInstance& inst, const RunContext& ctx,
                      std::string* why) {
      if (!interval_jobs(inst, ctx, why)) return false;
      if (!busy::is_proper_instance(inst.continuous) ||
          !busy::is_clique_instance(inst.continuous)) {
        if (why != nullptr) *why = "needs a proper clique instance";
        return false;
      }
      return true;
    };
    s.run = [](const ProblemInstance& inst, const RunContext& /*ctx*/) {
      const auto sched = busy::solve_proper_clique(inst.continuous);
      Solution sol;
      if (!sched.has_value()) {
        sol.message = "not a proper clique";
        return sol;
      }
      sol = busy_solution(*sched, inst);
      sol.exact = true;
      return sol;
    };
    registry.add(std::move(s));
  }

  {
    // The online FIRSTFIT is the by-release FIRSTFIT above, call for call.
    Solver s = online_solver("busy/online-first-fit",
                             busy::OnlinePolicy::kFirstFit);
    s.same_as = "busy/first-fit-release";
    registry.add(std::move(s));
  }
  registry.add(online_solver("busy/online-best-fit",
                             busy::OnlinePolicy::kBestFit));
  registry.add(online_solver("busy/online-next-fit",
                             busy::OnlinePolicy::kNextFit));

  registry.add(pipeline_solver("busy/pipeline-greedy-tracking",
                               "<= 3 OPT (sec 4.3 + Thm 5)", 3.0,
                               busy::IntervalAlgorithm::kGreedyTracking));
  registry.add(pipeline_solver("busy/pipeline-two-track-peeling",
                               "<= 4 OPT (Thm 10)", 4.0,
                               busy::IntervalAlgorithm::kTwoTrackPeeling));
  registry.add(pipeline_solver("busy/pipeline-first-fit",
                               "freeze + FIRSTFIT baseline (>= 4 worst case)",
                               0.0, busy::IntervalAlgorithm::kFirstFit));

  {
    Solver s;
    s.name = "busy/preemptive";
    s.family = Family::kBusy;
    s.guarantee = "<= 2 max(OPT_inf, mass/g) (Thm 7, preemptive)";
    s.guarantee_factor = 2.0;
    s.applicable = always_applicable;
    s.check = core::check_standard_solution;
    s.run = [](const ProblemInstance& inst, const RunContext& /*ctx*/) {
      busy::PreemptiveBoundedSolution result =
          busy::solve_preemptive_bounded(inst.continuous);
      Solution sol;
      sol.ok = true;
      sol.cost = result.busy_time;
      sol.preemptive = std::move(result.schedule);
      sol.add_stat("opt_inf", result.opt_infinity);
      sol.add_stat("lb", std::max(result.opt_infinity,
                                  inst.continuous.mass_lower_bound()));
      return sol;
    };
    registry.add(std::move(s));
  }

  {
    // The g = infinity DP as a standalone solver: when the frozen positions
    // already respect the capacity, a single machine carries everything and
    // the span lower bound is attained — a certified optimum.
    Solver s;
    s.name = "busy/dp-unbounded";
    s.family = Family::kBusy;
    s.guarantee = "optimal when the g=inf freeze fits g (Thm 4 DP)";
    s.guarantee_factor = 0.0;
    s.applicable = always_applicable;
    s.check = core::check_standard_solution;
    s.run = [](const ProblemInstance& inst, const RunContext& ctx) {
      const core::ContinuousInstance& jobs = inst.continuous;
      const int g = jobs.capacity();
      // Rigid jobs (no window longer than its job by more than the DP's
      // 1e-12 tie tolerance) leave the DP nothing to choose: its starts are
      // the releases, so its freeze is the given intervals and OPT_inf is
      // their span. Decide from those and skip the DP.
      if (jobs.all_interval_jobs(1e-12)) {
        const std::vector<core::Interval> fixed = jobs.forced_intervals();
        Solution sol;
        if (core::max_concurrency(fixed) > g) {
          sol.message = "frozen g=inf solution exceeds capacity g";
        } else {
          core::BusySchedule sched;
          sched.placements.reserve(fixed.size());
          for (const core::Interval& run : fixed) {
            sched.placements.push_back({0, run.lo});
          }
          sol = busy_solution(std::move(sched), inst);
          sol.exact = true;
        }
        sol.add_stat("opt_inf", core::span_of(fixed));
        return sol;
      }
      const busy::UnboundedSolution& dp = shared_unbounded(jobs, ctx);
      const core::ContinuousInstance frozen =
          busy::freeze_to_interval_instance(jobs, dp);
      const int peak = core::max_concurrency(frozen.forced_intervals());
      Solution sol;
      sol.timed_out = dp.timed_out;
      if (!dp.exact || peak > g) {
        sol.message = dp.timed_out
                          ? "budget expired before the g=inf DP finished"
                          : "frozen g=inf solution exceeds capacity g";
      } else {
        core::BusySchedule sched;
        sched.placements.reserve(dp.starts.size());
        for (const double start : dp.starts) {
          sched.placements.push_back({0, start});
        }
        sol = busy_solution(std::move(sched), inst);
        sol.exact = true;
      }
      sol.add_stat("dp_states", static_cast<double>(dp.nodes));
      sol.add_stat("dp_interned", static_cast<double>(dp.interned));
      if (dp.exact) sol.add_stat("opt_inf", dp.busy_time);
      return sol;
    };
    registry.add(std::move(s));
  }
}

// ----------------------------------------------------------------------
// Extended kinds: the weighted (cumulative-width) busy-time model and the
// multi-window active-time model — their own applicability predicates,
// their own checkers, the same timed + validated registry path as every
// standard solver.

/// Applicability predicates may be probed directly (outside the registry's
/// kind gate), so they refuse wrong-kind instances instead of asserting.
bool is_weighted(const ProblemInstance& inst, std::string* why) {
  if (inst.kind == InstanceKind::kWeighted) return true;
  if (why != nullptr) *why = "needs a weighted instance";
  return false;
}

bool weighted_interval(const ProblemInstance& inst, const RunContext& /*ctx*/,
                       std::string* why) {
  if (!is_weighted(inst, why)) return false;
  if (inst.weighted.all_interval_jobs(1e-6)) return true;
  if (why != nullptr) *why = "needs interval jobs (no slack)";
  return false;
}

bool weighted_flexible(const ProblemInstance& inst, const RunContext& /*ctx*/,
                       std::string* why) {
  if (!is_weighted(inst, why)) return false;
  if (!inst.weighted.all_interval_jobs(1e-6)) return true;
  if (why != nullptr) {
    *why = "interval jobs: use the direct weighted algorithms";
  }
  return false;
}

bool check_weighted(const ProblemInstance& inst, const Solution& sol,
                    std::string* why) {
  if (!sol.busy.has_value()) {
    if (why != nullptr) *why = "weighted solver produced no schedule";
    return false;
  }
  return busy::check_weighted_schedule(inst.weighted, *sol.busy, why);
}

Solution weighted_solution(core::BusySchedule sched,
                           const ProblemInstance& inst) {
  Solution sol;
  sol.ok = true;
  sol.cost = core::busy_cost(inst.weighted.unweighted(), sched);
  sol.busy = std::move(sched);
  return sol;
}

/// Direct weighted interval algorithm taking (WeightedInstance) ->
/// BusySchedule.
template <typename Fn>
Solver weighted_solver(std::string name, std::string guarantee, double factor,
                       Fn fn) {
  Solver s;
  s.name = std::move(name);
  s.family = Family::kBusy;
  s.kind = InstanceKind::kWeighted;
  s.guarantee = std::move(guarantee);
  s.guarantee_factor = factor;
  s.applicable = weighted_interval;
  s.check = check_weighted;
  s.run = [fn](const ProblemInstance& inst, const RunContext& /*ctx*/) {
    return weighted_solution(fn(inst.weighted), inst);
  };
  return s;
}

void register_weighted(core::SolverRegistry& registry) {
  registry.add(weighted_solver(
      "busy/weighted-first-fit",
      "heuristic (width-aware FIRSTFIT, non-increasing length)", 0.0,
      [](const core::WeightedInstance& inst) {
        return busy::weighted_first_fit(inst);
      }));
  registry.add(weighted_solver(
      "busy/weighted-narrow-wide", "<= 5 OPT (Khandekar et al. [9] split)",
      5.0, [](const core::WeightedInstance& inst) {
        return busy::narrow_wide_split(inst);
      }));

  {
    Solver s;
    s.name = "busy/weighted-exact";
    s.family = Family::kBusy;
    s.kind = InstanceKind::kWeighted;
    s.guarantee = "optimal (partition search; anytime under a budget)";
    s.guarantee_factor = 1.0;
    s.exact = true;
    s.check = check_weighted;
    s.applicable = [](const ProblemInstance& inst, const RunContext& ctx,
                      std::string* why) {
      if (!weighted_interval(inst, ctx, why)) return false;
      if (!ctx.has_budget() &&
          inst.weighted.size() >
              weighted_exact_free_run_max_jobs(inst.weighted.capacity())) {
        if (why != nullptr) {
          *why = "instance too large for the exact oracle (give it a "
                 "budget to run anytime)";
        }
        return false;
      }
      return true;
    };
    s.run = [](const ProblemInstance& inst, const RunContext& ctx) {
      const core::WeightedInstance& winst = inst.weighted;
      const busy::ExactBusyResult result =
          busy::solve_exact_busy(winst, {&ctx});
      Solution sol = weighted_solution(result.schedule, inst);
      sol.exact = result.proven_optimal;
      sol.timed_out = !result.proven_optimal;
      if (!result.proven_optimal) {
        sol.best_bound =
            std::max(winst.mass_lower_bound(), winst.span_lower_bound());
      }
      sol.add_stat("nodes", static_cast<double>(result.nodes));
      return sol;
    };
    registry.add(std::move(s));
  }

  {
    Solver s;
    s.name = "busy/weighted-flexible";
    s.family = Family::kBusy;
    s.kind = InstanceKind::kWeighted;
    s.guarantee = "freeze (g=inf DP) + narrow/wide (Khandekar recipe)";
    s.guarantee_factor = 0.0;
    s.applicable = weighted_flexible;
    s.check = check_weighted;
    s.run = [](const ProblemInstance& inst, const RunContext& ctx) {
      const core::WeightedInstance& winst = inst.weighted;
      const busy::UnboundedSolution& dp =
          shared_unbounded(winst.unweighted(), ctx);
      Solution sol =
          weighted_solution(busy::schedule_weighted_flexible(winst, dp), inst);
      // A stopped DP keeps its push-left fallback, still feasible.
      if (!dp.exact) {
        sol.timed_out = dp.timed_out;
        sol.add_stat("dp_exact", 0.0);
      }
      return sol;
    };
    registry.add(std::move(s));
  }
}

void register_multi_window(core::SolverRegistry& registry) {
  registry.add(minimal_solver(
      "active/multi-window-minimal",
      "minimal feasible heuristic (no factor carries over)",
      active::CloseOrder::kLeftToRight, InstanceKind::kMultiWindow));

  {
    Solver s;
    s.name = "active/multi-window-exact";
    s.family = Family::kActive;
    s.kind = InstanceKind::kMultiWindow;
    s.guarantee = "optimal (subset enumeration; anytime under a budget)";
    s.guarantee_factor = 1.0;
    s.exact = true;
    s.check = core::check_standard_solution;
    s.applicable = [](const ProblemInstance& inst, const RunContext& ctx,
                      std::string* why) {
      if (!applicable_multi_window(inst, ctx, why)) return false;
      // Measured gate (docs/ALGORITHMS.md): enumeration is 2^candidates
      // max-flow checks — ~8 s at 22 candidate slots on one core, tens of
      // ms at 18. A budget lifts the measured gate, but only up to the
      // 64-bit-mask structural cap of 22 candidates.
      const std::size_t candidates =
          active::candidate_slots(inst.multi_window).size();
      const std::size_t gate = ctx.has_budget() ? 22 : 18;
      if (candidates > gate) {
        if (why != nullptr) {
          *why = "too many candidate slots (" + std::to_string(candidates) +
                 " > " + std::to_string(gate) + ") for subset enumeration";
        }
        return false;
      }
      return true;
    };
    s.run = [](const ProblemInstance& inst, const RunContext& ctx) {
      Solution sol;
      active::MultiWindowExactOptions options;
      options.context = &ctx;
      const auto result =
          active::mw_solve_exact_anytime(inst.multi_window, options);
      if (!result.has_value()) {
        sol.message = "instance infeasible";
        return sol;
      }
      sol.ok = true;
      sol.cost = static_cast<double>(result->schedule.cost());
      sol.active = result->schedule;
      sol.exact = result->proven_optimal;
      sol.timed_out = !result->proven_optimal;
      if (!result->proven_optimal) {
        sol.best_bound =
            static_cast<double>(inst.multi_window.mass_lower_bound());
      }
      return sol;
    };
    registry.add(std::move(s));
  }
}

void register_active(core::SolverRegistry& registry) {
  registry.add(minimal_solver("active/minimal-feasible", "<= 3 OPT (Thm 1)",
                              active::CloseOrder::kLeftToRight));
  registry.add(minimal_solver("active/minimal-densest",
                              "<= 3 OPT (Thm 1, densest-first order)",
                              active::CloseOrder::kDensestFirst));

  {
    Solver s;
    s.name = "active/lp-rounding";
    s.family = Family::kActive;
    s.guarantee = "<= 2 OPT (Thm 2)";
    s.guarantee_factor = 2.0;
    s.applicable = always_applicable;
    s.check = core::check_standard_solution;
    s.run = [](const ProblemInstance& inst, const RunContext& ctx) {
      Solution sol;
      const auto result = active::solve_lp_rounding(inst.slotted, &ctx);
      if (!result.has_value()) {
        sol.message = "instance infeasible";
        return sol;
      }
      if (result->cancelled) {
        sol.timed_out = true;
        sol.message = "cancelled before LP solve completed";
        return sol;
      }
      sol.ok = true;
      sol.cost = static_cast<double>(result->schedule.cost());
      sol.active = result->schedule;
      sol.add_stat("lp_objective", result->lp_objective);
      sol.add_stat("lp_pivots", static_cast<double>(result->lp_pivots));
      sol.add_stat("repair_opens", result->repair_opens);
      return sol;
    };
    registry.add(std::move(s));
  }

  // Left-to-right closing keeps every slot as late as possible: the
  // lazy-activation strategy of Chang, Gabow and Khuller [2], exact when
  // all p_j = 1 (UnitGreedyExact cross-checks it against brute force).
  // The same call as active/minimal-feasible, under its unit-job claim.
  {
    Solver s = minimal_solver(
        "active/unit-greedy",
        "<= 3 OPT (minimal feasible); optimal for unit jobs",
        active::CloseOrder::kLeftToRight);
    s.same_as = "active/minimal-feasible";
    registry.add(std::move(s));
  }

  {
    Solver s;
    s.name = "active/exact";
    s.family = Family::kActive;
    s.guarantee = "optimal (branch & bound; anytime under a budget)";
    s.guarantee_factor = 1.0;
    s.exact = true;
    s.check = core::check_standard_solution;
    s.applicable = [](const ProblemInstance& inst, const RunContext& ctx,
                      std::string* why) {
      // Measured gate (docs/ALGORITHMS.md): the search is horizon-driven,
      // not job-driven — worst observed wall time at horizon 24 is ~0.3 s
      // for any n <= 20, but horizon 32 already costs seconds. A budget
      // retires the gate: the branch & bound is seeded with a feasible
      // incumbent and runs anytime to the deadline.
      if (!ctx.has_budget() &&
          (inst.slotted.size() > 20 || inst.slotted.horizon() > 24)) {
        if (why != nullptr) {
          *why = "instance too large for branch & bound (give it a budget "
                 "to run anytime)";
        }
        return false;
      }
      return true;
    };
    s.run = [](const ProblemInstance& inst, const RunContext& ctx) {
      Solution sol;
      active::ExactOptions options;
      options.context = &ctx;
      const auto result = active::solve_exact(inst.slotted, options);
      if (!result.has_value()) {
        sol.message = "instance infeasible";
        return sol;
      }
      if (result->cancelled) {
        // Cancelled before the incumbent seed existed: the result carries
        // no schedule, so report the decline instead of reading it.
        sol.timed_out = true;
        sol.message = "cancelled before an incumbent was seeded";
        return sol;
      }
      sol.ok = true;
      sol.cost = static_cast<double>(result->schedule.cost());
      sol.active = result->schedule;
      sol.exact = result->proven_optimal;
      sol.timed_out = result->timed_out;
      if (!result->proven_optimal) {
        sol.best_bound =
            static_cast<double>(inst.slotted.mass_lower_bound());
      }
      sol.add_stat("nodes", static_cast<double>(result->nodes_explored));
      return sol;
    };
    registry.add(std::move(s));
  }
}

}  // namespace

core::SolverRegistry builtin_registry() {
  core::SolverRegistry registry;
  register_busy(registry);
  register_active(registry);
  register_weighted(registry);
  register_multi_window(registry);
  return registry;
}

const core::SolverRegistry& shared_registry() {
  static const core::SolverRegistry registry = builtin_registry();
  return registry;
}

}  // namespace abt::engine
