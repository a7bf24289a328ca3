#include "engine/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>

#include "busy/lower_bounds.hpp"
#include "core/rng.hpp"
#include "core/text.hpp"
#include "engine/parallel.hpp"
#include "engine/portfolio.hpp"
#include "engine/scratch.hpp"
#include "gen/extended_instances.hpp"
#include "gen/gadgets.hpp"
#include "gen/random_instances.hpp"
#include "report/table.hpp"

namespace abt::engine {

using core::Family;
using core::ProblemInstance;

namespace {

/// The reference bound runs the g = infinity DP for flexible busy instances
/// no larger than this (the DP can be expensive); mass and profile bounds
/// are always on. Raising it tightens flexible bounds, so `cost_ratio`
/// moves with it.
constexpr int kSpanBoundMaxJobs = 48;

/// Combinatorial lower bound of an extended-model instance. Weighted: the
/// width-weighted mass, and the span projection when every run position is
/// forced (interval jobs). Multi-window: Theorem 1's full-slots bound, which
/// carries over verbatim (P units of work, at most g per active slot).
double extended_lower_bound(const ProblemInstance& inst) {
  if (inst.kind == core::InstanceKind::kWeighted) {
    const core::WeightedInstance& w = inst.weighted;
    double bound = w.mass_lower_bound();
    if (w.all_interval_jobs(1e-6)) {
      bound = std::max(bound, w.span_lower_bound());
    }
    return bound;
  }
  return static_cast<double>(inst.multi_window.mass_lower_bound());
}

/// One-line summary of an extended-model instance for the report headers.
std::string describe_extended(const ProblemInstance& inst) {
  std::ostringstream os;
  if (inst.kind == core::InstanceKind::kWeighted) {
    const core::WeightedInstance& w = inst.weighted;
    os << "weighted busy-time instance: " << w.size() << " jobs, g = "
       << w.capacity() << ", "
       << (w.all_interval_jobs(1e-6) ? "interval" : "flexible")
       << " jobs (cumulative-width model)";
  } else {
    const core::MultiWindowInstance& m = inst.multi_window;
    os << "multi-window active-time instance: " << m.size() << " jobs, g = "
       << m.capacity() << ", horizon " << m.horizon();
  }
  return os.str();
}

gen::SlottedParams slotted_params(const ScenarioSpec& spec) {
  gen::SlottedParams params;
  params.num_jobs = spec.n;
  params.capacity = spec.g;
  params.horizon = spec.horizon > 0
                       ? static_cast<core::SlotTime>(spec.horizon)
                       : std::max<core::SlotTime>(12, 2 * spec.n);
  return params;
}

gen::ContinuousParams continuous_params(const ScenarioSpec& spec,
                                        double slack) {
  gen::ContinuousParams params;
  params.num_jobs = spec.n;
  params.capacity = spec.g;
  params.horizon = spec.horizon > 0 ? spec.horizon : 10.0 + spec.n / 4.0;
  params.max_slack = slack;
  return params;
}

/// The slot of plan[s]'s target (Solver::same_as) in `plan`, or
/// plan.size() when plan[s] is no alias or its target is not planned.
std::size_t target_slot(const std::vector<const core::Solver*>& plan,
                        std::size_t s) {
  if (plan[s]->same_as.empty()) return plan.size();
  return static_cast<std::size_t>(
      std::find_if(plan.begin(), plan.end(),
                   [&](const core::Solver* target) {
                     return target->name == plan[s]->same_as;
                   }) -
      plan.begin());
}

/// "<requirement> (got <value>)", the value written as %.17g.
std::string range_error(std::string_view requirement, double value) {
  std::string out;
  core::append(out, requirement, " (got ", value, ")");
  return out;
}

}  // namespace

const std::vector<ScenarioInfo>& scenarios() {
  static const std::vector<ScenarioInfo> kScenarios = {
      {"slotted", Family::kActive, "random feasible slotted instance"},
      {"slotted-unit", Family::kActive, "random feasible unit-job instance"},
      {"fig3", Family::kActive, "Fig 3 minimal-feasible tight family (g>=3)"},
      {"lp-gap", Family::kActive, "section 3.5 LP integrality-gap family"},
      {"interval", Family::kBusy, "random interval jobs (no slack)"},
      {"flexible", Family::kBusy, "random flexible jobs (windowed)"},
      {"clique", Family::kBusy, "random interval jobs sharing a point"},
      {"proper", Family::kBusy, "random proper instance (no containment)"},
      {"laminar", Family::kBusy, "random laminar windows"},
      {"proper-clique", Family::kBusy,
       "proper clique (Mertzios DP exact case)"},
      {"fig1", Family::kBusy, "Fig 1 worked example (7 jobs, g=3)"},
      {"fig6", Family::kBusy, "Fig 6 GREEDYTRACKING factor-3 family"},
      {"fig8", Family::kBusy, "Fig 8 two-approximation tight family (g=2)"},
      {"fig10", Family::kBusy, "Fig 10-12 factor-4 flexible family"},
      {"bursty", Family::kBusy,
       "bursty arrivals: releases cluster around a few spikes"},
      {"weighted", Family::kBusy,
       "random weighted (cumulative-width) interval jobs"},
      {"weighted-flexible", Family::kBusy,
       "random weighted flexible (windowed) jobs"},
      {"multi-window", Family::kActive,
       "random feasible multi-window jobs (window unions)"},
  };
  return kScenarios;
}

std::optional<ProblemInstance> make_scenario(const ScenarioSpec& spec,
                                             std::string* error) {
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  if (spec.g < 1) {
    return fail("g must be >= 1 (got " + std::to_string(spec.g) + ")");
  }
  if (spec.n < 0) {
    return fail("n must be >= 0 (got " + std::to_string(spec.n) + ")");
  }
  if (spec.slack < 0.0) {
    return fail(range_error("slack must be >= 0", spec.slack));
  }
  if (spec.horizon < 0.0) {
    return fail(range_error("horizon must be >= 0", spec.horizon));
  }
  core::Rng rng(spec.seed);
  if (spec.name == "slotted" || spec.name == "slotted-unit") {
    gen::SlottedParams params = slotted_params(spec);
    params.unit_jobs = spec.name == "slotted-unit";
    return core::make_instance(gen::random_feasible_slotted(rng, params));
  }
  if (spec.name == "fig3") {
    if (spec.g < 3) return fail("fig3 requires g >= 3");
    return core::make_instance(gen::fig3_instance(spec.g));
  }
  if (spec.name == "lp-gap") {
    if (spec.g < 2) return fail("lp-gap requires g >= 2");
    return core::make_instance(gen::lp_gap_instance(spec.g));
  }
  if (spec.name == "interval") {
    return core::make_instance(
        gen::random_continuous(rng, continuous_params(spec, 0.0)));
  }
  if (spec.name == "flexible") {
    return core::make_instance(
        gen::random_continuous(rng, continuous_params(spec, spec.slack)));
  }
  if (spec.name == "clique") {
    return core::make_instance(
        gen::random_clique(rng, continuous_params(spec, 0.0)));
  }
  if (spec.name == "proper") {
    return core::make_instance(
        gen::random_proper(rng, continuous_params(spec, 0.0)));
  }
  if (spec.name == "laminar") {
    return core::make_instance(
        gen::random_laminar(rng, continuous_params(spec, 0.0)));
  }
  if (spec.name == "proper-clique") {
    return core::make_instance(
        gen::random_proper_clique(rng, continuous_params(spec, 0.0)));
  }
  if (spec.name == "fig1") {
    return core::make_instance(gen::fig1_example());
  }
  if (spec.name == "fig6") {
    if (spec.g < 2) return fail("fig6 requires g >= 2");
    if (!(spec.eps > 0.0 && spec.eps < 0.5)) {
      return fail(range_error("fig6 requires 0 < eps < 1/2", spec.eps));
    }
    return core::make_instance(gen::fig6_instance(spec.g, spec.eps));
  }
  // fig8 and fig10 also take eps' = eps / 3, which must stay positive: the
  // smallest subnormal eps would underflow it to 0. An eps below the
  // rounding step at a job's release (1 + eps == 1 in fig8) makes that
  // job's run empty, which the instance check rejects.
  const auto gadget =
      [&](core::ContinuousInstance inst) -> std::optional<ProblemInstance> {
    std::string why;
    if (!inst.structurally_valid(&why)) {
      return fail(range_error(spec.name + " eps is too small", spec.eps) +
                  ": " + why);
    }
    return core::make_instance(std::move(inst));
  };
  if (spec.name == "fig8") {
    if (!(spec.eps / 3.0 > 0.0 && spec.eps < 1.0)) {
      return fail(range_error("fig8 requires 0 < eps < 1", spec.eps));
    }
    return gadget(gen::fig8_instance(spec.eps, spec.eps / 3.0));
  }
  if (spec.name == "fig10") {
    if (spec.g < 2) return fail("fig10 requires g >= 2");
    if (!(spec.eps / 3.0 > 0.0 && spec.eps < 0.5)) {
      return fail(range_error("fig10 requires 0 < eps < 1/2", spec.eps));
    }
    return gadget(gen::fig10_instance(spec.g, spec.eps, spec.eps / 3.0));
  }
  if (spec.name == "bursty") {
    gen::BurstyParams params;
    params.base = continuous_params(spec, spec.slack);
    return core::make_instance(gen::random_bursty(rng, params));
  }
  if (spec.name == "weighted" || spec.name == "weighted-flexible") {
    gen::WeightedParams params;
    params.num_jobs = spec.n;
    params.capacity = spec.g;
    params.horizon = spec.horizon > 0 ? spec.horizon : 10.0 + spec.n / 4.0;
    params.max_slack = spec.name == "weighted-flexible" ? spec.slack : 0.0;
    if (spec.name == "weighted-flexible" && params.max_slack <= 0.0) {
      params.max_slack = 1.0;
    }
    return core::make_instance(gen::random_weighted(rng, params));
  }
  if (spec.name == "multi-window") {
    gen::MultiWindowParams params;
    params.num_jobs = spec.n;
    params.capacity = spec.g;
    params.horizon = static_cast<core::SlotTime>(spec.horizon);
    return core::make_instance(gen::random_multi_window(rng, params));
  }
  return fail("unknown scenario '" + spec.name + "' (see --scenarios)");
}

core::RunContext make_run_context(const RunOptions& options) {
  core::RunContext ctx = core::RunContext::with_budget_ms(options.budget_ms);
  ctx.set_cancel_token(options.cancel);
  return ctx;
}

/// Reference lower bound: an exact certificate beats everything; else the
/// combinatorial bounds of the relevant model.
LowerBound derive_lower_bound(const ProblemInstance& inst,
                              const std::vector<core::Solution>& solutions,
                              const RunOptions& /*options*/) {
  LowerBound lb;
  for (const core::Solution& sol : solutions) {
    if (sol.ok && sol.feasible && sol.exact && !sol.preemptive.has_value()) {
      if (lb.kind != "exact" || sol.cost < lb.value) {
        lb = {sol.cost, "exact"};
      }
    }
  }
  if (lb.kind.empty()) {
    if (inst.kind != core::InstanceKind::kStandard) {
      lb.value = extended_lower_bound(inst);
      lb.kind = "model";
    } else if (inst.family == Family::kBusy) {
      // Harvest the g=infinity span bound from any solver that already ran
      // the DP (pipelines, preemptive, dp-unbounded) instead of paying for
      // it again; only fall back to computing it when nobody did.
      double harvested_span = -1.0;
      for (const core::Solution& sol : solutions) {
        harvested_span = std::max(harvested_span, sol.stat("opt_inf", -1.0));
      }
      busy::BusyLowerBounds bounds = busy::busy_lower_bounds(
          inst.continuous, /*compute_span_for_flexible=*/false);
      if (harvested_span < 0.0 && !inst.continuous.all_interval_jobs(1e-6) &&
          inst.continuous.size() <= kSpanBoundMaxJobs) {
        const busy::UnboundedSolution& dp =
            shared_unbounded(inst.continuous, core::RunContext{});
        if (dp.exact) harvested_span = dp.busy_time;
      }
      bounds.span = std::max(bounds.span, harvested_span);
      lb.value = bounds.best();
      lb.kind = bounds.best() == bounds.profile  ? "profile"
                : bounds.best() == bounds.span   ? "span"
                                                 : "mass";
    } else {
      // Active costs are integers, so LP1's optimum rounds up (the 1e-6
      // absorbs the simplex's floating-point slack).
      lb.value = static_cast<double>(inst.slotted.mass_lower_bound());
      lb.kind = "mass";
      for (const core::Solution& sol : solutions) {
        const double lp = std::ceil(sol.stat("lp_objective", -1.0) - 1e-6);
        if (lp > lb.value) lb = {lp, "LP"};
      }
    }
  }
  return lb;
}

std::vector<RunReport> run_cells(const core::SolverRegistry& registry,
                                 std::vector<CellInput> inputs,
                                 const core::RunContext& ctx, int threads,
                                 const RunOptions& options, bool eager) {
  // The registry owns the selection semantics (budget-aware: a budget
  // lifts the exact gates); every cell writes only its pre-sized slot. An
  // alias planned next to its target gets no cell: its row is a copy of
  // the target's, made after the batch.
  std::vector<std::vector<const core::Solver*>> plans;
  plans.reserve(inputs.size());
  std::vector<RunReport> reports(inputs.size());
  struct Cell {
    std::size_t input;
    std::size_t slot;
  };
  std::vector<Cell> cells;
  // An instance's cells are contiguous and the scheduler cuts between
  // instances, so each instance's g = infinity DP memo stays on one slot.
  ParallelOptions parallel_options;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    plans.push_back(
        registry.selection(inputs[i].instance, inputs[i].solvers, ctx));
    reports[i].solutions.resize(plans[i].size());
    if (!plans[i].empty()) parallel_options.group_starts.push_back(cells.size());
    for (std::size_t s = 0; s < plans[i].size(); ++s) {
      if (target_slot(plans[i], s) == plans[i].size()) cells.push_back({i, s});
    }
  }
  // A tripped token drains at the scheduler: unclaimed cells are stamped
  // with the registry's decline row, with no begin_cell and no dispatch.
  parallel_options.cancel = ctx.cancel_token();
  parallel_options.eager_dispatch = eager;
  parallel_options.on_cancelled = [&](std::size_t c) {
    const auto [i, s] = cells[c];
    reports[i].solutions[s] = cancelled_cell_row(*plans[i][s], ctx.budget_ms());
  };
  parallel_for(
      threads, cells.size(),
      [&](std::size_t c) {
        const auto [i, s] = cells[c];
        // A freshly armed deadline per cell; token and hooks are shared.
        reports[i].solutions[s] =
            registry.run(*plans[i][s], inputs[i].instance, ctx.restarted());
      },
      parallel_options);
  // The alias rows and the lower bounds are a batch of their own: a bound
  // may run the DP.
  parallel_for(threads, inputs.size(), [&](std::size_t i) {
    RunReport& report = reports[i];
    for (std::size_t s = 0; s < plans[i].size(); ++s) {
      const std::size_t t = target_slot(plans[i], s);
      if (t == plans[i].size()) continue;
      core::Solution& row = report.solutions[s];
      row = report.solutions[t];
      row.solver = plans[i][s]->name;
      row.guarantee = plans[i][s]->guarantee;
      row.wall_ms = 0.0;
      row.check_ms = 0.0;
    }
    report.instance = std::move(inputs[i].instance);
    append_unknown_solver_rows(registry, inputs[i].solvers, report);
    report.lower_bound =
        derive_lower_bound(report.instance, report.solutions, options);
  });
  return reports;
}

RunReport run_instance(const core::SolverRegistry& registry,
                       const ProblemInstance& inst,
                       const RunOptions& options) {
  std::vector<CellInput> inputs;
  inputs.push_back({inst, options.solvers});
  return std::move(run_cells(registry, std::move(inputs),
                             make_run_context(options), 1, options)
                       .front());
}

std::string_view format_name(Format format) {
  switch (format) {
    case Format::kCsv: return "csv";
    case Format::kJson: return "json";
    case Format::kTable: break;
  }
  return "table";
}

int exit_code(const std::vector<core::Solution>& rows, bool solved) {
  for (const core::Solution& sol : rows) {
    if (sol.ok && !sol.feasible) return 2;
  }
  return solved ? 0 : 1;
}

int exit_code(const RunReport& report) {
  const std::vector<core::Solution>& rows = report.solutions;
  return exit_code(rows, std::any_of(rows.begin(), rows.end(),
                                     [](const auto& sol) { return sol.ok; }));
}

int exit_code(const SweepReport& report) {
  int code = 1;
  for (const RunReport& cell : report.cells) {
    const int cell_code = exit_code(cell);
    if (cell_code == 2) return 2;
    if (cell_code == 0) code = 0;
  }
  return code;
}

void render(std::ostream& os, Format format, const RunReport& report) {
  switch (format) {
    case Format::kJson: write_json(os, report); return;
    case Format::kCsv: write_csv(os, report); return;
    case Format::kTable: print_report(os, report); return;
  }
}

void render(std::ostream& os, Format format, const SweepReport& report) {
  switch (format) {
    case Format::kJson: write_sweep_json(os, report); return;
    case Format::kCsv: write_sweep_csv(os, report); return;
    case Format::kTable: print_sweep(os, report); return;
  }
}

Response execute(const core::SolverRegistry& registry, Request request,
                 const core::RunContext& ctx, int threads) {
  Response response;
  std::ostringstream body;
  if (request.race) {
    const std::vector<std::string> entries =
        request.solvers.empty()
            ? auto_entries(registry, request.instance, ctx)
            : request.solvers;
    RaceOptions options;
    options.threads = threads;
    options.accept_gap = request.accept_gap;
    RaceReport report =
        race(registry, request.instance, entries, ctx, options);
    render(body, request.format, request.instance, report);
    response.exit = exit_code(report);
    response.rows = std::move(report.rows);
  } else {
    std::vector<CellInput> inputs;
    inputs.push_back({std::move(request.instance), std::move(request.solvers)});
    RunReport report = std::move(
        run_cells(registry, std::move(inputs), ctx, threads, {}, true).front());
    render(body, request.format, report);
    response.exit = exit_code(report);
    response.rows = std::move(report.solutions);
  }
  response.payload = body.str();
  return response;
}

namespace {

std::string verdict(const core::Solution& sol) {
  if (!sol.ok) return "declined";
  if (!sol.feasible) return "INFEASIBLE";
  return sol.timed_out ? "feasible (t/o)" : "feasible";
}

std::string ratio_cell(const RunReport& report, const core::Solution& sol) {
  if (!sol.ok || report.lower_bound.value <= 0.0) return "-";
  return report::Table::num(sol.cost / report.lower_bound.value);
}

/// Optimality-gap cell: 0 for proven optima, the certified relative gap
/// for interrupted anytime runs, "-" when the run certifies no bound.
std::string gap_cell(const core::Solution& sol) {
  if (!sol.ok) return "-";
  if (sol.exact) return "0";
  if (sol.best_bound <= 0.0) return "-";
  return report::Table::num(sol.gap());
}

}  // namespace

void write_json_string(std::ostream& os, const std::string& text) {
  constexpr char kHex[] = "0123456789abcdef";
  os << '"';
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (byte < 0x20) {
          os << "\\u00" << kHex[byte >> 4] << kHex[byte & 0xf];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void write_aggregate_json(std::ostream& os, const SolverAggregate& agg) {
  os << "{\"solver\": ";
  write_json_string(os, agg.solver);
  os << ", \"runs\": " << agg.runs << ", \"ok\": " << agg.ok
     << ", \"feasible\": " << agg.feasible << ", \"exact\": " << agg.exact_runs
     << ", \"declined\": " << agg.declined
     << ", \"timed_out\": " << agg.timed_out;
  if (agg.ratio_count > 0) {
    os << ", \"ratio\": {\"count\": " << agg.ratio_count
       << ", \"mean\": " << agg.ratio_mean
       << ", \"median\": " << agg.ratio_median << ", \"p95\": " << agg.ratio_p95
       << ", \"max\": " << agg.ratio_max << "}";
  }
  if (agg.feasible > 0) {
    os << ", \"wall_ms\": {\"mean\": " << agg.wall_mean_ms
       << ", \"median\": " << agg.wall_median_ms
       << ", \"p95\": " << agg.wall_p95_ms
       << ", \"total\": " << agg.wall_total_ms << "}";
  }
  os << "}";
}

core::Solution unknown_solver_row(const std::string& name,
                                  core::Family family) {
  core::Solution sol;
  sol.solver = name;
  sol.family = family;
  sol.message = "unknown solver";
  return sol;
}

void append_unknown_solver_rows(const core::SolverRegistry& registry,
                                const std::vector<std::string>& only,
                                RunReport& cell) {
  for (const std::string& name : only) {
    if (registry.find(name) == nullptr) {
      cell.solutions.push_back(unknown_solver_row(name, cell.instance.family));
    }
  }
}

core::Solution cancelled_cell_row(const core::Solver& solver,
                                  double budget_ms) {
  core::Solution sol;
  sol.solver = solver.name;
  sol.family = solver.family;
  sol.guarantee = solver.guarantee;
  sol.budget_ms = budget_ms;
  sol.message = "cancelled";
  sol.timed_out = true;
  return sol;
}

void print_report(std::ostream& os, const RunReport& report) {
  const bool busy = report.instance.family == Family::kBusy;
  if (report.instance.kind != core::InstanceKind::kStandard) {
    os << describe_extended(report.instance) << "\n";
  } else if (busy) {
    os << "busy-time instance: " << report.instance.continuous.size()
       << " jobs, g = " << report.instance.continuous.capacity() << ", "
       << (report.instance.continuous.all_interval_jobs() ? "interval"
                                                          : "flexible")
       << " jobs\n";
  } else {
    os << "active-time instance: " << report.instance.slotted.size()
       << " jobs, g = " << report.instance.slotted.capacity() << ", horizon "
       << report.instance.slotted.horizon() << "\n";
  }
  os << "lower bound: " << report::Table::num(report.lower_bound.value)
     << " (" << report.lower_bound.kind << ")\n\n";

  report::Table table({"solver", "cost", "/LB", "gap", busy ? "machines" : "-",
                       "ms", "verdict", "guarantee"});
  for (const core::Solution& sol : report.solutions) {
    table.add_row({sol.solver,
                   sol.ok ? report::Table::num(sol.cost) : "-",
                   ratio_cell(report, sol), gap_cell(sol),
                   busy && sol.ok ? std::to_string(sol.machines) : "-",
                   report::Table::num(sol.wall_ms),
                   verdict(sol), sol.guarantee});
  }
  table.print(os);
}

void write_csv(std::ostream& os, const RunReport& report) {
  report::Table table({"solver", "cost", "ratio_to_lb", "machines", "wall_ms",
                       "feasible", "exact", "timed_out", "best_bound", "gap",
                       "guarantee"});
  for (const core::Solution& sol : report.solutions) {
    table.add_row({sol.solver,
                   sol.ok ? report::Table::num(sol.cost, 6) : "",
                   sol.ok && report.lower_bound.value > 0.0
                       ? report::Table::num(
                             sol.cost / report.lower_bound.value, 6)
                       : "",
                   std::to_string(sol.machines),
                   report::Table::num(sol.wall_ms, 6),
                   sol.feasible ? "1" : "0", sol.exact ? "1" : "0",
                   sol.timed_out ? "1" : "0",
                   sol.ok && sol.best_bound > 0.0
                       ? report::Table::num(sol.best_bound, 6)
                       : "",
                   sol.ok && (sol.exact || sol.best_bound > 0.0)
                       ? report::Table::num(sol.gap(), 6)
                       : "",
                   sol.guarantee});
  }
  table.write_csv(os);
}

void write_json(std::ostream& os, const RunReport& report) {
  // Round-trippable doubles: the machine-readable report must not round
  // away digits the table/CSV writers keep.
  const std::streamsize old_precision =
      os.precision(std::numeric_limits<double>::max_digits10);
  const bool busy = report.instance.family == Family::kBusy;
  os << "{\n  \"family\": \"" << core::family_name(report.instance.family)
     << "\",\n  \"kind\": \""
     << core::instance_kind_name(report.instance.kind) << "\",\n";
  if (report.instance.kind != core::InstanceKind::kStandard) {
    const bool weighted =
        report.instance.kind == core::InstanceKind::kWeighted;
    os << "  \"jobs\": "
       << (weighted ? report.instance.weighted.size()
                    : report.instance.multi_window.size())
       << ",\n  \"capacity\": "
       << (weighted ? report.instance.weighted.capacity()
                    : report.instance.multi_window.capacity())
       << ",\n  \"description\": ";
    // Parity with the text report header: the one-line model summary,
    // since kind alone does not identify the concrete shape.
    write_json_string(os, describe_extended(report.instance));
  } else if (busy) {
    os << "  \"jobs\": " << report.instance.continuous.size()
       << ",\n  \"capacity\": " << report.instance.continuous.capacity()
       << ",\n  \"interval_jobs\": "
       << (report.instance.continuous.all_interval_jobs() ? "true" : "false");
  } else {
    os << "  \"jobs\": " << report.instance.slotted.size()
       << ",\n  \"capacity\": " << report.instance.slotted.capacity()
       << ",\n  \"horizon\": " << report.instance.slotted.horizon();
  }
  os << ",\n  \"lower_bound\": {\"value\": " << report.lower_bound.value
     << ", \"kind\": ";
  write_json_string(os, report.lower_bound.kind);
  os << "},\n  \"solutions\": [";
  for (std::size_t i = 0; i < report.solutions.size(); ++i) {
    const core::Solution& sol = report.solutions[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"solver\": ";
    write_json_string(os, sol.solver);
    os << ", \"ok\": " << (sol.ok ? "true" : "false")
       << ", \"feasible\": " << (sol.feasible ? "true" : "false");
    if (sol.ok) {
      os << ", \"cost\": " << sol.cost << ", \"machines\": " << sol.machines
         << ", \"exact\": " << (sol.exact ? "true" : "false");
      if (sol.timed_out) os << ", \"timed_out\": true";
      if (sol.best_bound > 0.0) {
        os << ", \"best_bound\": " << sol.best_bound;
        os << ", \"gap\": " << sol.gap();
      }
    }
    if (sol.budget_ms > 0.0) os << ", \"budget_ms\": " << sol.budget_ms;
    os << ", \"wall_ms\": " << sol.wall_ms;
    if (!sol.message.empty()) {
      os << ", \"message\": ";
      write_json_string(os, sol.message);
    }
    os << ", \"guarantee\": ";
    write_json_string(os, sol.guarantee);
    if (!sol.stats.empty()) {
      os << ", \"stats\": {";
      for (std::size_t k = 0; k < sol.stats.size(); ++k) {
        if (k > 0) os << ", ";
        write_json_string(os, sol.stats[k].first);
        os << ": " << sol.stats[k].second;
      }
      os << "}";
    }
    os << "}";
  }
  os << "\n  ]\n}\n";
  os.precision(old_precision);
}

// ---------------------------------------------------------------------------
// Trial sweeps.

namespace {

/// Deterministic order statistics over a scratch copy (nearest-rank p95,
/// middle-averaged median).
struct OrderStats {
  double mean = 0.0;
  double median = 0.0;
  double p95 = 0.0;
  double max = 0.0;
};

OrderStats order_stats(std::vector<double> values) {
  OrderStats out;
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  double sum = 0.0;
  for (const double v : values) sum += v;
  const std::size_t n = values.size();
  out.mean = sum / static_cast<double>(n);
  out.median = n % 2 == 1 ? values[n / 2]
                          : 0.5 * (values[n / 2 - 1] + values[n / 2]);
  const std::size_t rank95 = static_cast<std::size_t>(
      std::ceil(0.95 * static_cast<double>(n)));
  out.p95 = values[std::max<std::size_t>(rank95, 1) - 1];
  out.max = values.back();
  return out;
}

}  // namespace

std::vector<SolverAggregate> aggregate_cells(
    const std::vector<RunReport>& cells) {
  std::vector<SolverAggregate> aggregates;
  std::vector<std::vector<double>> ratios;
  std::vector<std::vector<double>> walls;
  const auto index_of = [&](const core::Solution& sol) {
    for (std::size_t i = 0; i < aggregates.size(); ++i) {
      if (aggregates[i].solver == sol.solver) return i;
    }
    SolverAggregate agg;
    agg.solver = sol.solver;
    agg.guarantee = sol.guarantee;
    aggregates.push_back(std::move(agg));
    ratios.emplace_back();
    walls.emplace_back();
    return aggregates.size() - 1;
  };
  for (const RunReport& cell : cells) {
    for (const core::Solution& sol : cell.solutions) {
      const std::size_t idx = index_of(sol);
      SolverAggregate& agg = aggregates[idx];
      agg.runs += 1;
      agg.wall_total_ms += sol.wall_ms + sol.check_ms;
      if (sol.timed_out) agg.timed_out += 1;
      if (!sol.ok) {
        agg.declined += 1;
        continue;
      }
      agg.ok += 1;
      if (sol.exact) agg.exact_runs += 1;
      // Checker-failed schedules contribute to the verdict counts only:
      // an infeasible cost must never pollute the published ratio/wall
      // statistics (the infeasibility itself surfaces through
      // feasible < ok and the CLI's exit code 2).
      if (!sol.feasible) continue;
      agg.feasible += 1;
      walls[idx].push_back(sol.wall_ms);
      if (cell.lower_bound.value > 0.0) {
        ratios[idx].push_back(sol.cost / cell.lower_bound.value);
      }
    }
  }
  for (std::size_t i = 0; i < aggregates.size(); ++i) {
    SolverAggregate& agg = aggregates[i];
    agg.ratio_count = static_cast<int>(ratios[i].size());
    const OrderStats ratio = order_stats(ratios[i]);
    agg.ratio_mean = ratio.mean;
    agg.ratio_median = ratio.median;
    agg.ratio_p95 = ratio.p95;
    agg.ratio_max = ratio.max;
    const OrderStats wall = order_stats(walls[i]);
    agg.wall_mean_ms = wall.mean;
    agg.wall_median_ms = wall.median;
    agg.wall_p95_ms = wall.p95;
  }
  return aggregates;
}

std::optional<SweepReport> run_sweep(const core::SolverRegistry& registry,
                                     const ScenarioSpec& base,
                                     const SweepOptions& options,
                                     std::string* error) {
  SweepReport report;
  report.base = base;
  report.trials = std::max(1, options.trials);
  report.threads = resolve_threads(options.threads);
  report.budget_ms = options.run.budget_ms;
  const auto t0 = std::chrono::steady_clock::now();

  // Instance generation is sequential: it is cheap, and trial t's workload
  // depends only on (scenario, base.seed + t), never on thread scheduling.
  std::vector<CellInput> inputs;
  inputs.reserve(static_cast<std::size_t>(report.trials));
  for (int t = 0; t < report.trials; ++t) {
    ScenarioSpec spec = base;
    spec.seed = base.seed + static_cast<std::uint64_t>(t);
    auto inst = make_scenario(spec, error);
    if (!inst.has_value()) return std::nullopt;
    inputs.push_back({std::move(*inst), options.run.solvers});
  }
  report.cells = run_cells(registry, std::move(inputs),
                           make_run_context(options.run), report.threads,
                           options.run);

  // Aggregate per solver, in first-seen (registration) order.
  report.aggregates = aggregate_cells(report.cells);

  report.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  return report;
}

void print_sweep(std::ostream& os, const SweepReport& report) {
  os << "sweep: scenario '" << report.base.name << "', " << report.trials
     << " trials (seeds " << report.base.seed << ".."
     << report.base.seed + static_cast<std::uint64_t>(report.trials - 1)
     << "), " << report.threads << " thread"
     << (report.threads == 1 ? "" : "s") << ", "
     << report::Table::num(report.wall_ms) << " ms total";
  if (report.budget_ms > 0.0) {
    os << ", budget " << report::Table::num(report.budget_ms) << " ms/cell";
  }
  os << "\n";
  if (!report.cells.empty()) {
    const RunReport& first = report.cells.front();
    if (first.instance.kind != core::InstanceKind::kStandard) {
      os << "per trial: " << describe_extended(first.instance) << "\n";
    }
  }
  os << "\n";
  report::Table table({"solver", "runs", "ok", "feasible", "exact", "t/o",
                       "ratio mean", "med", "p95", "max", "ms med",
                       "ms p95"});
  for (const SolverAggregate& agg : report.aggregates) {
    const bool has_ratio = agg.ratio_count > 0;
    table.add_row(
        {agg.solver, std::to_string(agg.runs), std::to_string(agg.ok),
         std::to_string(agg.feasible), std::to_string(agg.exact_runs),
         std::to_string(agg.timed_out),
         has_ratio ? report::Table::num(agg.ratio_mean) : "-",
         has_ratio ? report::Table::num(agg.ratio_median) : "-",
         has_ratio ? report::Table::num(agg.ratio_p95) : "-",
         has_ratio ? report::Table::num(agg.ratio_max) : "-",
         agg.feasible > 0 ? report::Table::num(agg.wall_median_ms) : "-",
         agg.feasible > 0 ? report::Table::num(agg.wall_p95_ms) : "-"});
  }
  table.print(os);
}

void write_sweep_csv(std::ostream& os, const SweepReport& report) {
  report::Table table({"solver", "runs", "ok", "feasible", "exact",
                       "declined", "timed_out",
                       "ratio_mean", "ratio_median", "ratio_p95",
                       "ratio_max", "wall_mean_ms", "wall_median_ms",
                       "wall_p95_ms", "wall_total_ms"});
  for (const SolverAggregate& agg : report.aggregates) {
    const bool has_ratio = agg.ratio_count > 0;
    table.add_row(
        {agg.solver, std::to_string(agg.runs), std::to_string(agg.ok),
         std::to_string(agg.feasible), std::to_string(agg.exact_runs),
         std::to_string(agg.declined), std::to_string(agg.timed_out),
         has_ratio ? report::Table::num(agg.ratio_mean, 6) : "",
         has_ratio ? report::Table::num(agg.ratio_median, 6) : "",
         has_ratio ? report::Table::num(agg.ratio_p95, 6) : "",
         has_ratio ? report::Table::num(agg.ratio_max, 6) : "",
         agg.feasible > 0 ? report::Table::num(agg.wall_mean_ms, 6) : "",
         agg.feasible > 0 ? report::Table::num(agg.wall_median_ms, 6) : "",
         agg.feasible > 0 ? report::Table::num(agg.wall_p95_ms, 6) : "",
         report::Table::num(agg.wall_total_ms, 6)});
  }
  table.write_csv(os);
}

void write_sweep_json(std::ostream& os, const SweepReport& report) {
  const std::streamsize old_precision =
      os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\n  \"scenario\": ";
  write_json_string(os, report.base.name);
  os << ",\n  \"trials\": " << report.trials
     << ",\n  \"threads\": " << report.threads
     << ",\n  \"base_seed\": " << report.base.seed
     << ",\n  \"n\": " << report.base.n << ",\n  \"g\": " << report.base.g
     << ",\n  \"budget_ms\": " << report.budget_ms
     << ",\n  \"wall_ms\": " << report.wall_ms
     << ",\n  \"aggregates\": [";
  for (std::size_t i = 0; i < report.aggregates.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    ";
    write_aggregate_json(os, report.aggregates[i]);
  }
  os << "\n  ],\n  \"cells\": [";
  for (std::size_t t = 0; t < report.cells.size(); ++t) {
    const RunReport& cell = report.cells[t];
    os << (t == 0 ? "\n" : ",\n") << "    {\"seed\": "
       << report.base.seed + static_cast<std::uint64_t>(t)
       << ", \"lower_bound\": {\"value\": " << cell.lower_bound.value
       << ", \"kind\": ";
    write_json_string(os, cell.lower_bound.kind);
    os << "}, \"solutions\": [";
    for (std::size_t s = 0; s < cell.solutions.size(); ++s) {
      const core::Solution& sol = cell.solutions[s];
      os << (s == 0 ? "" : ", ") << "{\"solver\": ";
      write_json_string(os, sol.solver);
      os << ", \"ok\": " << (sol.ok ? "true" : "false") << ", \"feasible\": "
         << (sol.feasible ? "true" : "false");
      if (sol.ok) {
        os << ", \"cost\": " << sol.cost
           << ", \"exact\": " << (sol.exact ? "true" : "false");
        if (sol.timed_out) os << ", \"timed_out\": true";
        if (sol.best_bound > 0.0 && !sol.exact) {
          os << ", \"best_bound\": " << sol.best_bound
             << ", \"gap\": " << sol.gap();
        }
      }
      os << ", \"wall_ms\": " << sol.wall_ms << "}";
    }
    os << "]}";
  }
  os << "\n  ]\n}\n";
  os.precision(old_precision);
}

}  // namespace abt::engine
