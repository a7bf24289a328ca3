#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/solver.hpp"

namespace abt::engine {

/// A named generated workload. One spec covers every generator the library
/// ships — the random families of gen/random_instances and the paper's
/// adversarial gadget families of gen/gadgets — so "scenario x solver" is a
/// closed grid any driver can sweep.
struct ScenarioSpec {
  std::string name = "interval";
  int n = 20;                 ///< Jobs (random families).
  int g = 3;                  ///< Capacity.
  std::uint64_t seed = 1;     ///< Rng seed (random families).
  double slack = 1.0;         ///< Window slack (flexible families).
  double horizon = 0.0;       ///< 0 = derived from n.
  double eps = 0.01;          ///< Gadget parameter.
};

struct ScenarioInfo {
  std::string name;
  core::Family family;
  std::string description;
};

/// All registered scenario names with family and one-line description.
[[nodiscard]] const std::vector<ScenarioInfo>& scenarios();

/// Instantiates a scenario; nullopt (with `error`) for unknown names or
/// out-of-range parameters (every scenario needs g >= 1, n >= 0, slack >= 0
/// and horizon >= 0; fig3 needs g >= 3; fig6 and fig10 need 0 < eps < 1/2,
/// fig8 0 < eps < 1, and fig8/fig10 an eps large enough that no job's
/// run rounds to empty). n = 0 gives an empty random instance.
[[nodiscard]] std::optional<core::ProblemInstance> make_scenario(
    const ScenarioSpec& spec, std::string* error = nullptr);

/// Best known lower bound on OPT for an instance, assembled from the exact
/// solvers' certificates when present and the paper's combinatorial bounds
/// otherwise.
struct LowerBound {
  double value = 0.0;
  std::string kind;  ///< "exact", "LP", "mass", "span", "profile", "".
};

struct RunOptions {
  /// Restrict to these solver names (empty = every applicable solver).
  std::vector<std::string> solvers;
  /// Per-cell wall-clock budget in ms (0 = unlimited). Every solver run
  /// gets a fresh deadline; a budget also lifts the exact solvers' size
  /// gates — they run anytime to the deadline and report incumbent + gap.
  double budget_ms = 0.0;
  /// Shared cancellation: once cancelled, remaining cells decline with
  /// message "cancelled" and running anytime solvers return their
  /// incumbent at the next poll.
  core::CancelToken cancel;
};

/// The invocation context `options` describes: budget and token. The
/// clock starts now — callers arm it per cell (registry/sweep drivers call
/// restarted() per run).
[[nodiscard]] core::RunContext make_run_context(const RunOptions& options);

/// One instance driven through a solver subset: the uniform run record the
/// CLI, the benches and the tests all consume.
struct RunReport {
  core::ProblemInstance instance;
  std::vector<core::Solution> solutions;
  LowerBound lower_bound;
};

/// One instance of a cell batch and the solver names it runs (empty =
/// every applicable solver).
struct CellInput {
  core::ProblemInstance instance;
  std::vector<std::string> solvers;
};

/// The one cell fan-out behind run_instance, run_sweep, run_campaign and
/// execute: plans each input with registry.selection, runs every (input,
/// solver) cell in one parallel_for under ctx.restarted() (cancelled_cell_row
/// once ctx's token trips; `eager` = ParallelOptions::eager_dispatch), and
/// returns one RunReport per input with unknown-solver rows and the lower
/// bound, identical for any `threads`.
[[nodiscard]] std::vector<RunReport> run_cells(
    const core::SolverRegistry& registry, std::vector<CellInput> inputs,
    const core::RunContext& ctx, int threads, const RunOptions& options = {},
    bool eager = false);

/// Runs every selected applicable solver on the instance (timed and
/// checker-validated by the registry) and derives the reference lower bound.
/// One serial run_cells batch.
[[nodiscard]] RunReport run_instance(const core::SolverRegistry& registry,
                                     const core::ProblemInstance& inst,
                                     const RunOptions& options = {});

// ---------------------------------------------------------------------------
// Trial sweeps: many seeds of one scenario, fanned out over a thread pool.

struct SweepOptions {
  int trials = 8;   ///< Trial t regenerates the scenario with seed base+t.
  int threads = 1;  ///< Worker threads; <= 0 resolves to the hardware count.
  RunOptions run;   ///< Solver subset / lower-bound knobs per trial.
};

/// Aggregate statistics of one solver across the sweep's trials. Cost and
/// verdict aggregates are deterministic functions of (scenario, seeds,
/// solver subset) — identical for every thread count when no budget is in
/// play; only the wall-clock fields vary run to run.
struct SolverAggregate {
  std::string solver;
  std::string guarantee;
  int runs = 0;        ///< Cells attempted (== trials).
  int ok = 0;          ///< Produced a schedule.
  int feasible = 0;    ///< Passed the checker.
  int exact_runs = 0;  ///< Proved optimality.
  int declined = 0;    ///< Refused the cell (== runs - ok).
  int timed_out = 0;   ///< Budget/cancellation interrupted the run.

  /// Cost / per-trial lower bound, over checker-validated cells with a
  /// positive bound (an infeasible cost never enters the statistics).
  int ratio_count = 0;
  double ratio_mean = 0.0;
  double ratio_median = 0.0;
  double ratio_p95 = 0.0;
  double ratio_max = 0.0;

  /// Wall-clock per run() call, over checker-validated cells only —
  /// EXCEPT wall_total_ms, which sums every cell including declined ones
  /// and adds each cell's checker time (a declined cell still costs its
  /// applicability probe, and the total is the sweep's actual spend). The
  /// `declined` count above makes the denominator difference explicit in
  /// the reports.
  double wall_mean_ms = 0.0;
  double wall_median_ms = 0.0;
  double wall_p95_ms = 0.0;
  double wall_total_ms = 0.0;  ///< Over every cell, including declined.
};

/// Per-solver aggregation over assembled cells, in first-seen (solution)
/// order — shared by the trial sweep and the campaign engine so both
/// report identical statistics for identical cells.
[[nodiscard]] std::vector<SolverAggregate> aggregate_cells(
    const std::vector<RunReport>& cells);

/// The decline row a cancelled cell gets WITHOUT entering the registry:
/// field-for-field what SolverRegistry::run returns for a cancelled
/// context (message "cancelled", timed_out set), so the scheduler's
/// drained cells are indistinguishable from ones the registry declined.
[[nodiscard]] core::Solution cancelled_cell_row(const core::Solver& solver,
                                                double budget_ms);

/// Reference lower bound of one run: an exact certificate from
/// `solutions` beats everything; otherwise the combinatorial bounds of
/// the instance's family (the extension's own bound for extended kinds).
/// No field of `options` changes the bound today.
[[nodiscard]] LowerBound derive_lower_bound(
    const core::ProblemInstance& inst,
    const std::vector<core::Solution>& solutions, const RunOptions& options);

/// Shared report plumbing (used by the sweep and campaign writers so the
/// two schemas cannot silently diverge):
/// `write_json_string` emits `text` as an escaped JSON string literal
/// (every byte below 0x20 escaped); `write_aggregate_json` emits one
/// SolverAggregate as a single-line JSON object
/// (solver/runs/ok/feasible/exact/declined/timed_out + optional ratio and
/// wall_ms groups); `unknown_solver_row` is the refusal row every
/// requested-but-unregistered solver name gets, and
/// `append_unknown_solver_rows` adds one per such name in `only`.
void write_json_string(std::ostream& os, const std::string& text);
void write_aggregate_json(std::ostream& os, const SolverAggregate& agg);
[[nodiscard]] core::Solution unknown_solver_row(const std::string& name,
                                                core::Family family);
void append_unknown_solver_rows(const core::SolverRegistry& registry,
                                const std::vector<std::string>& only,
                                RunReport& cell);

struct SweepReport {
  ScenarioSpec base;  ///< Trial t used seed base.seed + t.
  int trials = 0;
  int threads = 1;
  double budget_ms = 0.0;  ///< Per-cell budget the sweep ran under.
  double wall_ms = 0.0;  ///< Whole-sweep wall clock (all cells, all threads).
  std::vector<RunReport> cells;             ///< One per trial, seed order.
  std::vector<SolverAggregate> aggregates;  ///< Registration order.
};

/// Fans (trial, solver) cells out over a fixed-size thread pool, collects
/// the per-cell Solutions (each timed and checker-validated by the
/// registry), derives per-trial lower bounds and aggregates per-solver
/// mean/median/p95 cost ratios, wall times and verdicts. Nullopt (with
/// `error`) when the scenario cannot be instantiated.
[[nodiscard]] std::optional<SweepReport> run_sweep(
    const core::SolverRegistry& registry, const ScenarioSpec& base,
    const SweepOptions& options, std::string* error = nullptr);

/// How a report is rendered: aligned text table, CSV rows or JSON.
enum class Format { kTable, kCsv, kJson };

/// "table", "csv" or "json" (the abtd payload's `format` values).
[[nodiscard]] std::string_view format_name(Format format);

/// The exit contract every report type shares (abt_solve's exit status and
/// abtd's `exit=N` flag): 2 when any row's schedule failed its checker,
/// else 0 when `solved`, else 1.
[[nodiscard]] int exit_code(const std::vector<core::Solution>& rows,
                            bool solved);
/// solved = some row produced a schedule.
[[nodiscard]] int exit_code(const RunReport& report);
/// Over every trial: 2 on any checker failure, else 0 when any trial solved.
[[nodiscard]] int exit_code(const SweepReport& report);

/// The format dispatch over the writers below.
void render(std::ostream& os, Format format, const RunReport& report);
void render(std::ostream& os, Format format, const SweepReport& report);

/// One single-instance solve or race: the one request path that abt_solve,
/// its --connect client (through abtd) and abtd share.
struct Request {
  core::ProblemInstance instance;
  /// Solve: the solver subset (empty = every applicable solver). Race: the
  /// explicit contestants (empty = the auto pick).
  std::vector<std::string> solvers;
  bool race = false;
  double accept_gap = -1.0;  ///< RaceOptions::accept_gap.
  Format format = Format::kJson;
};

struct Response {
  std::vector<core::Solution> rows;  ///< Solve rows or race rows.
  std::string payload;               ///< The report rendered in `format`.
  int exit = 0;                      ///< exit_code of the report.
};

/// Runs `request` under `ctx` (budget, cancel token, incumbent ring) on up
/// to `threads` pool workers (0 = hardware): a solve is one eager run_cells
/// batch, a race goes through engine::race.
[[nodiscard]] Response execute(const core::SolverRegistry& registry,
                               Request request, const core::RunContext& ctx,
                               int threads);

/// Renders the sweep aggregate as an aligned text table.
void print_sweep(std::ostream& os, const SweepReport& report);

/// Aggregate CSV rows: solver,runs,ok,feasible,exact,ratio_*,wall_*.
void write_sweep_csv(std::ostream& os, const SweepReport& report);

/// Machine-readable JSON: sweep parameters, per-solver aggregates, and a
/// compact per-cell record (lower bound + per-solver cost/verdict).
void write_sweep_json(std::ostream& os, const SweepReport& report);

/// Renders the report as an aligned text table (report::Table).
void print_report(std::ostream& os, const RunReport& report);

/// CSV rows: solver,cost,ratio,machines,wall_ms,feasible,guarantee.
void write_csv(std::ostream& os, const RunReport& report);

/// Machine-readable JSON: instance summary, lower bound, one object per
/// solution including its stats.
void write_json(std::ostream& os, const RunReport& report);

}  // namespace abt::engine
