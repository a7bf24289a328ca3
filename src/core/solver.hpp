#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/active_schedule.hpp"
#include "core/busy_schedule.hpp"
#include "core/continuous_instance.hpp"
#include "core/multi_window_instance.hpp"
#include "core/run_context.hpp"
#include "core/slotted_instance.hpp"
#include "core/weighted_instance.hpp"

namespace abt::core {

/// Which of the paper's two problem families a solver addresses.
enum class Family { kBusy, kActive };

[[nodiscard]] std::string_view family_name(Family family);

/// Which instance model a ProblemInstance carries. The two standard kinds
/// are the paper's base models (slotted active time, continuous busy time),
/// told apart by `family`; the extended kinds are the generalizations the
/// paper points to (width-weighted busy time, multi-window active time).
enum class InstanceKind { kStandard, kWeighted, kMultiWindow };

[[nodiscard]] std::string_view instance_kind_name(InstanceKind kind);

/// Uniform instance carrier over the library's four instance models:
/// exactly one member is meaningful, selected by `kind` (and, for the
/// standard kind, by `family`). This is the single currency the solver
/// registry, the scenario engine and the CLI trade in, so that "run every
/// applicable algorithm on this input" is one call regardless of model.
struct ProblemInstance {
  Family family = Family::kBusy;
  InstanceKind kind = InstanceKind::kStandard;
  SlottedInstance slotted;           ///< kStandard, family == kActive.
  ContinuousInstance continuous;     ///< kStandard, family == kBusy.
  WeightedInstance weighted;         ///< kWeighted (family kBusy).
  MultiWindowInstance multi_window;  ///< kMultiWindow (family kActive).
};

[[nodiscard]] ProblemInstance make_instance(SlottedInstance inst);
[[nodiscard]] ProblemInstance make_instance(ContinuousInstance inst);
[[nodiscard]] ProblemInstance make_instance(WeightedInstance inst);
[[nodiscard]] ProblemInstance make_instance(MultiWindowInstance inst);

/// Uniform result of one solver run. Every solver — busy or active, exact
/// or approximate, preemptive or not — reports through this struct so the
/// runner, the benchmarks and the tests share one validation/reporting path.
struct Solution {
  std::string solver;   ///< Registered solver name.
  Family family = Family::kBusy;

  bool ok = false;        ///< A schedule was produced.
  bool feasible = false;  ///< Checker verdict on the produced schedule.
  std::string message;    ///< Why not ok / why infeasible (checker output).

  double cost = 0.0;     ///< Busy time, or number of active slots.
  double wall_ms = 0.0;  ///< Wall-clock time of the run() call.
  /// Wall-clock time of the registry's checker call. Counted in
  /// SolverAggregate::wall_total_ms; never rendered.
  double check_ms = 0.0;
  int machines = 0;      ///< Machines used (busy family; 0 for active).

  std::string guarantee;  ///< Human-readable a-priori bound of the solver.
  bool exact = false;     ///< This run proved optimality of `cost`.

  /// Budget / anytime bookkeeping. `budget_ms` echoes the RunContext the
  /// run was given (0 = unlimited); `timed_out` means the budget or a
  /// cancellation interrupted the run, so `cost` is the best incumbent
  /// found, not a proven optimum; `best_bound` is the strongest lower
  /// bound on OPT the run can certify (== cost for a completed exact run,
  /// a combinatorial bound for an interrupted one, 0 when none applies).
  double budget_ms = 0.0;
  bool timed_out = false;
  double best_bound = 0.0;

  /// Relative optimality gap of `cost` against `best_bound`: 0 for a
  /// proven optimum, (cost - best_bound) / best_bound when a positive
  /// bound is known, +infinity when the run certifies no bound at all.
  [[nodiscard]] double gap() const;

  /// Solver-specific counters (DP states, interned sets, LP objective,
  /// repair opens, ...), reported as ordered key/value pairs.
  std::vector<std::pair<std::string, double>> stats;

  /// The produced schedule, for Gantt rendering and re-checking. At most
  /// one is set, matching the solver's family and preemptiveness.
  std::optional<BusySchedule> busy;
  std::optional<PreemptiveBusySchedule> preemptive;
  std::optional<ActiveSchedule> active;

  [[nodiscard]] double stat(std::string_view key, double fallback = 0.0) const;
  void add_stat(std::string key, double value);
};

/// A registered algorithm. `run` fills cost / schedule / stats; the
/// registry wraps it with timing and checker validation so individual
/// solvers never reimplement either.
struct Solver {
  std::string name;    ///< Unique registry key, e.g. "busy/greedy-tracking".
  Family family = Family::kBusy;
  /// Instance representation the solver consumes. A solver only ever sees
  /// instances of its own kind — the registry gates on it exactly like on
  /// `family`, so standard solvers never receive an extended instance.
  InstanceKind kind = InstanceKind::kStandard;
  std::string guarantee;  ///< e.g. "<= 3 OPT", "optimal", "heuristic".

  /// Worst-case approximation factor vs OPT claimed by the paper
  /// (cost <= factor * OPT); 0 when no finite a-priori factor applies.
  double guarantee_factor = 0.0;
  /// True when the solver proves optimality whenever it succeeds.
  bool exact = false;

  /// Whether the solver accepts this instance (model, job shape, size)
  /// under the given invocation context. May explain a refusal through
  /// `why`. Size gates on the exact solvers consult `ctx.has_budget()`:
  /// with a budget the hard gate lifts — the solver runs anytime-style to
  /// the deadline and reports its incumbent with a gap instead of
  /// refusing outright.
  std::function<bool(const ProblemInstance&, const RunContext& ctx,
                     std::string* why)>
      applicable;

  /// Runs the algorithm. Preconditions: `applicable` returned true.
  /// Polynomial solvers ignore `ctx`; anytime solvers poll
  /// `ctx.should_stop()` and report incumbents through it.
  std::function<Solution(const ProblemInstance&, const RunContext& ctx)> run;

  /// Checker for the produced schedule. Required for weighted instances
  /// (the default checkers understand the standard and multi-window
  /// models); when set it
  /// replaces the registry's built-in validation. Must not trust any
  /// bookkeeping in the Solution beyond the schedule itself.
  std::function<bool(const ProblemInstance&, const Solution&,
                     std::string* why)>
      check;

  /// Names the solver whose rows this one's equal, when it is an alias:
  /// the same run, on the same family and kind, behind the same
  /// applicability gate and checker (plain functions, so that add() can
  /// compare them). When both are in one plan, engine::run_cells runs only
  /// the target and gives this row a copy of the target's, under its own
  /// name and guarantee, with wall and checker times 0. Empty otherwise.
  std::string same_as;
};

/// The registry's built-in validation for standard-kind and multi-window
/// solutions: the family-appropriate schedule checker applied to whatever
/// schedule the Solution carries (check_active_schedule serves both active
/// models). Exposed so registrations can name it explicitly as their
/// `check` — the project lint requires every registered solver to supply a
/// checker, and "the standard one, on purpose" beats an empty field that
/// might mean "forgot". Fails (with a message) on weighted instances:
/// those bring their own checker.
[[nodiscard]] bool check_standard_solution(const ProblemInstance& inst,
                                           const Solution& sol,
                                           std::string* why);

/// Name-keyed collection of solvers with a uniform timed + checked run
/// entry point. Registration order is preserved (it is the display order).
class SolverRegistry {
 public:
  /// Registers a solver; the name must be unique, and an alias's target
  /// (Solver::same_as) registered before it, matching it as documented
  /// there.
  void add(Solver solver);

  [[nodiscard]] const Solver* find(std::string_view name) const;
  [[nodiscard]] const std::vector<Solver>& all() const { return solvers_; }
  [[nodiscard]] std::size_t size() const { return solvers_.size(); }

  /// The solvers a run on `inst` plans (engine::run_cells, and the auto
  /// pick of a race), in registration order: every family/kind/
  /// applicability match under `ctx` when `only` is empty (a budget lifts
  /// the exact solvers' size gates), else the named subset verbatim
  /// (mismatches included — run() turns them into declined rows). Unknown
  /// names have no Solver and are not represented here; callers surface
  /// them as refusal rows. This is the single definition of selection
  /// semantics — extend gates here, never in a caller.
  [[nodiscard]] std::vector<const Solver*> selection(
      const ProblemInstance& inst, const std::vector<std::string>& only = {},
      const RunContext& ctx = {}) const;

  /// Runs one solver: applicability gate, wall-clock timing, checker
  /// validation of whatever schedule the solver produced. Never throws on
  /// solver refusal — the verdict lands in Solution::ok / message. The
  /// context is used as given (deadline already armed by the caller); a
  /// context cancelled before the call declines the run with message
  /// "cancelled" so batch drivers stop promptly.
  [[nodiscard]] Solution run(const Solver& solver, const ProblemInstance& inst,
                             const RunContext& ctx = {}) const;

  /// Convenience: run(find(name)); refusal Solution when unknown.
  [[nodiscard]] Solution run(std::string_view name,
                             const ProblemInstance& inst,
                             const RunContext& ctx = {}) const;

 private:
  std::vector<Solver> solvers_;
};

}  // namespace abt::core
