#include "core/solver.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

#include "core/assert.hpp"

namespace abt::core {

std::string_view family_name(Family family) {
  return family == Family::kBusy ? "busy" : "active";
}

std::string_view instance_kind_name(InstanceKind kind) {
  switch (kind) {
    case InstanceKind::kWeighted: return "weighted";
    case InstanceKind::kMultiWindow: return "multi-window";
    case InstanceKind::kStandard: break;
  }
  return "standard";
}

ProblemInstance make_instance(SlottedInstance inst) {
  ProblemInstance out;
  out.family = Family::kActive;
  out.slotted = std::move(inst);
  return out;
}

ProblemInstance make_instance(ContinuousInstance inst) {
  ProblemInstance out;
  out.family = Family::kBusy;
  out.continuous = std::move(inst);
  return out;
}

ProblemInstance make_instance(WeightedInstance inst) {
  ProblemInstance out;
  out.family = Family::kBusy;
  out.kind = InstanceKind::kWeighted;
  out.weighted = std::move(inst);
  return out;
}

ProblemInstance make_instance(MultiWindowInstance inst) {
  ProblemInstance out;
  out.family = Family::kActive;
  out.kind = InstanceKind::kMultiWindow;
  out.multi_window = std::move(inst);
  return out;
}

double Solution::gap() const {
  if (exact) return 0.0;
  if (best_bound <= 0.0) return std::numeric_limits<double>::infinity();
  return std::max(0.0, cost - best_bound) / best_bound;
}

double Solution::stat(std::string_view key, double fallback) const {
  for (const auto& [k, v] : stats) {
    if (k == key) return v;
  }
  return fallback;
}

void Solution::add_stat(std::string key, double value) {
  stats.emplace_back(std::move(key), value);
}

namespace {

/// Both hold the same plain function.
template <typename Fn>
bool same_function(const std::function<Fn>& a, const std::function<Fn>& b) {
  Fn* const* fa = a.template target<Fn*>();
  Fn* const* fb = b.template target<Fn*>();
  return fa != nullptr && fb != nullptr && *fa == *fb;
}

}  // namespace

void SolverRegistry::add(Solver solver) {
  ABT_ASSERT(!solver.name.empty(), "solver must be named");
  ABT_ASSERT(find(solver.name) == nullptr, "duplicate solver name");
  ABT_ASSERT(static_cast<bool>(solver.run), "solver must have a run fn");
  if (!solver.same_as.empty()) {
    const Solver* target = find(solver.same_as);
    ABT_ASSERT(target != nullptr && target->same_as.empty(),
               "an alias's target must be registered, and be no alias");
    ABT_ASSERT(target->family == solver.family && target->kind == solver.kind,
               "an alias must match its target's family and kind");
    ABT_ASSERT(same_function(target->check, solver.check) &&
                   same_function(target->applicable, solver.applicable),
               "an alias must share its target's checker and gate");
  }
  solvers_.push_back(std::move(solver));
}

const Solver* SolverRegistry::find(std::string_view name) const {
  const auto it = std::find_if(
      solvers_.begin(), solvers_.end(),
      [&](const Solver& s) { return s.name == name; });
  return it == solvers_.end() ? nullptr : &*it;
}

Solution SolverRegistry::run(const Solver& solver, const ProblemInstance& inst,
                             const RunContext& ctx) const {
  Solution sol;
  sol.solver = solver.name;
  sol.family = solver.family;
  sol.guarantee = solver.guarantee;
  sol.budget_ms = ctx.budget_ms();

  // A cancelled batch declines every remaining cell up front — the point
  // of cancellation is that no further solver work starts.
  if (ctx.cancelled()) {
    sol.message = "cancelled";
    sol.timed_out = true;
    return sol;
  }
  if (solver.family != inst.family) {
    sol.message = "wrong family";
    return sol;
  }
  if (solver.kind != inst.kind) {
    sol.message = std::string("wrong instance kind (solver wants ") +
                  std::string(instance_kind_name(solver.kind)) + ", got " +
                  std::string(instance_kind_name(inst.kind)) + ")";
    return sol;
  }
  if (solver.applicable) {
    std::string why;
    if (!solver.applicable(inst, ctx, &why)) {
      sol.message = why.empty() ? "not applicable" : why;
      return sol;
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  Solution produced = solver.run(inst, ctx);
  const auto t1 = std::chrono::steady_clock::now();

  produced.solver = solver.name;
  produced.family = solver.family;
  produced.budget_ms = ctx.budget_ms();
  if (produced.guarantee.empty()) produced.guarantee = solver.guarantee;
  produced.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  // A completed exact run certifies its own cost as the lower bound; an
  // interrupted one keeps whatever combinatorial bound the solver set.
  if (produced.ok && produced.exact && produced.best_bound <= 0.0) {
    produced.best_bound = produced.cost;
  }

  if (!produced.ok) {
    produced.feasible = false;
    return produced;
  }

  // Shared checker validation: the verdict is part of the contract, so no
  // caller ever trusts a solver's own bookkeeping. Extended kinds (and any
  // solver with its own validation contract) supply the checker at
  // registration; the registry still owns the verdict and the machine
  // count either way.
  std::string why;
  const auto c0 = std::chrono::steady_clock::now();
  produced.feasible = solver.check
                          ? solver.check(inst, produced, &why)
                          : check_standard_solution(inst, produced, &why);
  produced.check_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - c0)
                          .count();
  if (produced.busy.has_value()) {
    produced.machines = produced.busy->machine_count();
  } else if (produced.preemptive.has_value()) {
    produced.machines = produced.preemptive->machine_count();
  }
  if (!produced.feasible) produced.message = why;
  return produced;
}

bool check_standard_solution(const ProblemInstance& inst, const Solution& sol,
                             std::string* why) {
  if (sol.family == Family::kActive &&
      inst.kind == InstanceKind::kMultiWindow) {
    ABT_ASSERT(sol.active.has_value(), "active solver without schedule");
    return check_active_schedule(inst.multi_window, *sol.active, why);
  }
  if (inst.kind != InstanceKind::kStandard) {
    if (why != nullptr) {
      *why = "extended instance kind without a registered checker";
    }
    return false;
  }
  if (sol.family == Family::kActive) {
    ABT_ASSERT(sol.active.has_value(), "active solver without schedule");
    return check_active_schedule(inst.slotted, *sol.active, why);
  }
  if (sol.preemptive.has_value()) {
    return check_preemptive_schedule(inst.continuous, *sol.preemptive, why);
  }
  ABT_ASSERT(sol.busy.has_value(), "busy solver without schedule");
  return check_busy_schedule(inst.continuous, *sol.busy, why);
}

Solution SolverRegistry::run(std::string_view name, const ProblemInstance& inst,
                             const RunContext& ctx) const {
  const Solver* solver = find(name);
  if (solver == nullptr) {
    Solution sol;
    sol.solver = std::string(name);
    sol.message = "unknown solver";
    return sol;
  }
  return run(*solver, inst, ctx);
}

std::vector<const Solver*> SolverRegistry::selection(
    const ProblemInstance& inst, const std::vector<std::string>& only,
    const RunContext& ctx) const {
  std::vector<const Solver*> out;
  for (const Solver& s : solvers_) {
    if (only.empty()) {
      // Unrestricted runs silently skip inapplicable solvers.
      if (s.family != inst.family || s.kind != inst.kind) continue;
      if (s.applicable && !s.applicable(inst, ctx, nullptr)) continue;
    } else if (std::find(only.begin(), only.end(), s.name) == only.end()) {
      continue;
    }
    out.push_back(&s);
  }
  return out;
}

}  // namespace abt::core
